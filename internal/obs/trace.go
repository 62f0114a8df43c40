package obs

import "sync"

// Event is the one trace record: a decision, a delivery step, or a stage
// of a segment's lifecycle span (see span.go). It deliberately carries no
// wall-clock fields: every field is a pure function of the seeded run, so
// event sequences emitted from a single goroutine are reproducible and
// comparable across runs (DESIGN.md §9). Unused fields stay at their zero
// values; Source and Kind determine which are meaningful.
type Event struct {
	// Seq is the ring-assigned sequence number (first event is 1).
	// Assigned by Ring.Record; zero until then.
	Seq uint64 `json:"seq"`
	// Source names the emitting component, e.g. "core.online",
	// "bandit.online.lossy", "transport.uplink", "transport.collector".
	Source string `json:"source"`
	// Kind is the event type within the source, e.g. "decision",
	// "select", "update", "dial", "send", "ack", "backoff", "deliver",
	// "redeliver". A record that is only a lifecycle stage has its stage
	// name as Kind.
	Kind string `json:"kind"`
	// ID is the segment/frame ID, ACK watermark, or dial ordinal,
	// depending on Kind.
	ID uint64 `json:"id"`
	// Device is the emitting device's ID: Config.DeviceID on engine stage
	// records, the uplink's or delivering device's ID on transport events.
	Device uint64 `json:"device,omitempty"`
	// Trace is the span identity shared by every stage of one segment's
	// lifecycle and propagated over the wire (TraceOfSegment); zero on
	// records that are not stages.
	Trace uint64 `json:"trace,omitempty"`
	// Stage is the lifecycle stage this record marks (stageNames), set by
	// Ring.RecordStage; empty on records that are not stages.
	Stage string `json:"stage,omitempty"`
	// Arm is the bandit arm index (-1 when not applicable).
	Arm int `json:"arm"`
	// Codec is the codec name for selection/decision events.
	Codec string `json:"codec,omitempty"`
	// Lossy reports the phase for decision events.
	Lossy bool `json:"lossy,omitempty"`
	// Ratio is the achieved compression ratio.
	Ratio float64 `json:"ratio,omitempty"`
	// Reward is the bandit reward observed (decision/update events).
	Reward float64 `json:"reward,omitempty"`
	// Target is the target ratio at decision time.
	Target float64 `json:"target,omitempty"`
	// Value is a kind-specific number: the post-update estimate for
	// bandit updates, the backoff wait in seconds for backoff events,
	// the spool depth for spool.enqueue stages.
	Value float64 `json:"value,omitempty"`
	// VT is a stage's virtual time: cost-model seconds since the segment's
	// ingest. Zero for stages outside the engine.
	VT float64 `json:"vt_seconds,omitempty"`
	// Dur is a stage's own cost-model duration in virtual seconds (trial
	// stages; zero elsewhere).
	Dur float64 `json:"dur_seconds,omitempty"`
	// Err carries the failure text for *-fail events.
	Err string `json:"err,omitempty"`
}

// DefaultRingCap bounds the trace ring when no capacity is configured:
// a segment leaves about ten records (its stages plus the bandit's select
// and update events), so this holds the last thousand-odd segments and
// stays harmless on an edge-sized heap.
const DefaultRingCap = 16384

// Ring is the bounded in-memory trace buffer: Record appends (dropping
// the oldest event once full), Events snapshots in emission order. It is
// safe from any goroutine and allocation-free to write. A nil Ring ignores
// Record and returns empty snapshots, so emitters hold a *Ring and need no
// second switch.
type Ring struct {
	mu      sync.Mutex
	buf     []Event // guarded by mu
	start   int     // guarded by mu; index of the oldest event
	n       int     // guarded by mu; live event count
	total   uint64  // guarded by mu; events ever recorded
	dropped uint64  // guarded by mu; events evicted by the bound
	// hist holds the span.stage_seconds.<stage> histograms RecordStage
	// feeds (set once by New; nil entries on a standalone ring).
	hist [numStages]*Histogram
}

// NewRing builds a ring holding up to capacity events (DefaultRingCap
// when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record stamps the event's Seq (1-based, in record order) and appends
// it, evicting the oldest event when full.
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.total++
	ev.Seq = r.total
	i := (r.start + r.n) % len(r.buf)
	r.buf[i] = ev
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

// RecordStage records ev as lifecycle stage st of its trace: it stamps
// ev.Stage (and ev.Kind, when empty) with the stage's name, feeds ev.Dur
// into the stage's histogram, and appends. Allocation-free; nil-receiver
// safe.
func (r *Ring) RecordStage(st Stage, ev Event) {
	if r == nil || st >= numStages {
		return
	}
	ev.Stage = stageNames[st]
	if ev.Kind == "" {
		ev.Kind = ev.Stage
	}
	r.hist[st].Observe(ev.Dur)
	r.Record(ev)
}

// Events returns a copy of the buffered events, oldest first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Total returns how many events were ever recorded (0 on nil).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events the bound evicted (0 on nil).
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of buffered events (0 on nil).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
