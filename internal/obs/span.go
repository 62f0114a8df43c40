package obs

import "sync"

// Span layer: the segment-lifecycle half of the substrate. Where the
// trace Ring records isolated decisions, the SpanRing follows one segment
// across layers as a causally ordered chain of stages —
//
//	ingest → features → trial → select → encode →
//	spool.enqueue → wire.send → wire.ack → collector.deliver
//
// joined by a (device, trace) identity the transport propagates over the
// wire (a traced frame carries the trace ID; see internal/transport).
// A span is "closed end-to-end" once a collector.deliver stage joins the
// device-side stages, which is exactly the paper's delivered-segment
// lifecycle: the fleet experiment asserts closed == devices×segments.
//
// Determinism mirrors the trace ring's contract: stage records carry no
// wall-clock fields. Timestamps are VT — virtual seconds since the
// segment's ingest, advanced by the deterministic codec cost model
// (core.DefaultCodecCost) — so the span stream of a seeded run is
// byte-identical run to run. Stages emitted outside the engine
// (spool/wire/collector) have no virtual cost and record VT/Dur zero;
// their wall timing lives in the existing perf-timer histograms
// (transport.uplink.rtt_seconds), never in span records.

// Stage identifies one lifecycle stage of a segment span.
type Stage uint8

// The nine lifecycle stages, in causal order.
const (
	// StageIngest marks the segment entering the engine's decision path.
	StageIngest Stage = iota
	// StageFeatures marks contextual feature extraction + prediction
	// (emitted only when the contextual layer is configured).
	StageFeatures
	// StageTrial marks one codec trial encode (one record per arm tried).
	StageTrial
	// StageSelect marks the winning arm's selection.
	StageSelect
	// StageEncode marks the winning encode leaving the engine.
	StageEncode
	// StageSpoolEnqueue marks the segment entering the uplink spool.
	StageSpoolEnqueue
	// StageWireSend marks the frame leaving the device over the wire.
	StageWireSend
	// StageWireAck marks the device observing the collector's cumulative
	// ACK cover the frame.
	StageWireAck
	// StageCollectorDeliver marks exactly-once delivery at the collector.
	StageCollectorDeliver

	numSpanStages
)

// stageNames is index-aligned with the Stage constants.
var stageNames = [numSpanStages]string{
	"ingest",
	"features",
	"trial",
	"select",
	"encode",
	"spool.enqueue",
	"wire.send",
	"wire.ack",
	"collector.deliver",
}

// String returns the stage's catalogue name ("?" for out-of-range values).
func (s Stage) String() string {
	if s >= numSpanStages {
		return "?"
	}
	return stageNames[s]
}

// StageNames lists every stage name in causal order (a fresh copy).
func StageNames() []string {
	out := make([]string, numSpanStages)
	copy(out, stageNames[:])
	return out
}

// StageOf resolves a catalogue name back to its Stage.
func StageOf(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// TraceOfSegment is the canonical segment→trace mapping: segment ID + 1,
// so a trace identity is never zero (zero means "no trace" on the wire —
// an untraced frame leaves the tag's traced bit clear and carries no trace
// field). Engines, the fleet harness and tests all derive trace identities
// through this one function.
func TraceOfSegment(segmentID uint64) uint64 { return segmentID + 1 }

// SpanStage is one recorded lifecycle stage. Like Event it carries no
// wall-clock fields: every field is a pure function of the seeded run.
type SpanStage struct {
	// Seq is the ring-assigned sequence number (first record is 1).
	Seq uint64 `json:"seq"`
	// Device is the emitting device's ID (0 for single-device runs).
	Device uint64 `json:"device"`
	// Trace is the span identity shared by every stage of one segment's
	// lifecycle and propagated over the wire. Engines use segment ID + 1
	// so the identity is never zero (zero means "no trace" on the wire).
	Trace uint64 `json:"trace"`
	// Stage is the catalogue name of the lifecycle stage.
	Stage string `json:"stage"`
	// Arm is the bandit arm index (-1 when not applicable).
	Arm int `json:"arm"`
	// Codec names the codec for trial/select/encode stages.
	Codec string `json:"codec,omitempty"`
	// VT is the virtual time of the stage: cost-model seconds since the
	// segment's ingest. Zero for stages outside the engine.
	VT float64 `json:"vt_seconds"`
	// Dur is the stage's own cost-model duration in virtual seconds
	// (trial and encode stages; zero elsewhere).
	Dur float64 `json:"dur_seconds,omitempty"`
	// Value is a stage-specific number: the achieved ratio for encode,
	// the spool depth for spool.enqueue, the redelivery count for
	// collector.deliver.
	Value float64 `json:"value,omitempty"`
}

// DefaultSpanRingCap bounds the span ring when no capacity is configured.
// A segment's lifecycle is ≤ 9 stages plus one trial per arm, so 16384
// holds several hundred complete end-to-end spans.
const DefaultSpanRingCap = 16384

// SpanRing is a bounded in-memory buffer of span stages plus cumulative
// per-stage counters that survive ring wraparound. Record is safe from
// any goroutine and allocation-free; a nil SpanRing ignores Record and
// returns empty snapshots, so emitters hold a *SpanRing and pay one
// branch when spans are disabled.
type SpanRing struct {
	mu      sync.Mutex
	buf     []SpanStage               // guarded by mu
	start   int                       // guarded by mu; index of oldest record
	n       int                       // guarded by mu; live record count
	total   uint64                    // guarded by mu; records ever recorded
	dropped uint64                    // guarded by mu; records evicted
	counts  [numSpanStages]uint64     // guarded by mu; cumulative per stage
	hist    [numSpanStages]*Histogram // set once before use; stage Dur
}

// NewSpanRing builds a span ring holding up to capacity stage records
// (DefaultSpanRingCap when capacity <= 0).
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultSpanRingCap
	}
	return &SpanRing{buf: make([]SpanStage, capacity)}
}

// Record appends one stage record: it stamps the record's canonical stage
// name and ring Seq, bumps the stage's cumulative counter, and feeds the
// stage duration into the per-stage histogram when one is attached.
// Allocation-free; nil-receiver safe.
func (r *SpanRing) Record(st Stage, rec SpanStage) {
	if r == nil || st >= numSpanStages {
		return
	}
	rec.Stage = stageNames[st]
	if h := r.hist[st]; h != nil {
		h.Observe(rec.Dur)
	}
	r.mu.Lock()
	r.total++
	r.counts[st]++
	rec.Seq = r.total
	i := (r.start + r.n) % len(r.buf)
	r.buf[i] = rec
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

// Stages returns a copy of the buffered records, oldest first.
func (r *SpanRing) Stages() []SpanStage {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanStage, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// StageCount returns how many records of st were ever recorded — the
// counter is cumulative and survives ring wraparound, so
// StageCount(StageCollectorDeliver) is the total delivered-span count
// even after old records were evicted.
func (r *SpanRing) StageCount(st Stage) uint64 {
	if r == nil || st >= numSpanStages {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[st]
}

// StageCounts returns the cumulative per-stage counters keyed by stage
// name.
func (r *SpanRing) StageCounts() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, numSpanStages)
	for i, c := range r.counts {
		out[stageNames[i]] = c
	}
	return out
}

// Total returns how many stage records were ever recorded (0 on nil).
func (r *SpanRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many records the bound evicted (0 on nil).
func (r *SpanRing) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of buffered records (0 on nil).
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// SpanGroup is one trace's assembled lifecycle: every buffered stage
// sharing the (device, trace) identity, in record order.
type SpanGroup struct {
	Device uint64 `json:"device"`
	Trace  uint64 `json:"trace"`
	// Complete reports an end-to-end span: at least one device-side
	// stage joined by a collector.deliver stage under the same identity.
	Complete bool `json:"complete"`
	// VT is the span's total virtual time: the maximum stage VT.
	VT     float64     `json:"vt_seconds"`
	Stages []SpanStage `json:"stages"`
}

// Groups assembles the buffered records into spans keyed by
// (device, trace), ordered by each span's first buffered record. Records
// with a zero trace identity (pre-span wire traffic) are skipped. This is
// a read-path helper: it allocates freely and must not be called from hot
// paths.
func (r *SpanRing) Groups() []SpanGroup {
	stages := r.Stages()
	if len(stages) == 0 {
		return nil
	}
	type key struct{ device, trace uint64 }
	idx := make(map[key]int, 64)
	groups := make([]SpanGroup, 0, 64)
	for _, s := range stages {
		if s.Trace == 0 {
			continue
		}
		k := key{s.Device, s.Trace}
		gi, ok := idx[k]
		if !ok {
			gi = len(groups)
			idx[k] = gi
			groups = append(groups, SpanGroup{Device: s.Device, Trace: s.Trace})
		}
		g := &groups[gi]
		g.Stages = append(g.Stages, s)
		if s.VT > g.VT {
			g.VT = s.VT
		}
	}
	for i := range groups {
		g := &groups[i]
		var device, deliver bool
		for _, s := range g.Stages {
			if s.Stage == stageNames[StageCollectorDeliver] {
				deliver = true
			} else {
				device = true
			}
		}
		g.Complete = device && deliver
	}
	return groups
}

// ClosedSpans counts the buffered complete end-to-end spans: traces whose
// device-side stages were joined by a collector.deliver record. Read-path
// helper (allocates).
func (r *SpanRing) ClosedSpans() int {
	closed := 0
	for _, g := range r.Groups() {
		if g.Complete {
			closed++
		}
	}
	return closed
}
