package obs

// Segment-lifecycle spans. A span follows one segment across layers as a
// causally ordered chain of stages —
//
//	ingest → features → trial → select → encode →
//	spool.enqueue → wire.send → wire.ack → collector.deliver
//
// joined by a (device, trace) identity the transport propagates over the
// wire (a traced frame carries the trace ID; see internal/transport). A
// stage is an ordinary Event in the trace Ring, recorded through
// RecordStage; where a stage marks the same moment as an event, one record
// carries both (the engine's decision is its encode stage, an uplink send
// its wire.send, a collector delivery its collector.deliver). A span is
// "closed end-to-end" once a collector.deliver stage joins the device-side
// stages, which is exactly the paper's delivered-segment lifecycle: the
// fleet experiment asserts closed == devices×segments.
//
// Timestamps are VT — virtual seconds since the segment's ingest, advanced
// by the deterministic codec cost model (core.DefaultCodecCost) — so the
// stage stream of a seeded run is byte-identical run to run. Stages
// recorded outside the engine (spool/wire/collector) have no virtual cost
// and record VT/Dur zero; their wall timing lives in the latency
// histograms (transport.uplink.rtt_seconds), never in trace records.

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

	numStages
)

// stageNames is index-aligned with the Stage constants.
var stageNames = [numStages]string{
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

// StageNames lists every stage name in causal order (a fresh copy).
func StageNames() []string {
	out := make([]string, numStages)
	copy(out, stageNames[:])
	return out
}

// TraceOfSegment is the canonical segment→trace mapping: segment ID + 1,
// so a trace identity is never zero (zero means "no trace" on the wire —
// an untraced frame leaves the tag's traced bit clear and carries no trace
// field). Engines, the fleet harness and tests all derive trace identities
// through this one function.
func TraceOfSegment(segmentID uint64) uint64 { return segmentID + 1 }

// SpanGroup is one trace's assembled lifecycle: every buffered record
// sharing the (device, trace) identity, in record order.
type SpanGroup struct {
	Device uint64 `json:"device"`
	Trace  uint64 `json:"trace"`
	// Complete reports an end-to-end span: at least one device-side
	// stage joined by a collector.deliver stage under the same identity.
	Complete bool `json:"complete"`
	// VT is the span's total virtual time: the maximum stage VT.
	VT     float64 `json:"vt_seconds"`
	Stages []Event `json:"stages"`
}

// Groups assembles the buffered stage records into spans keyed by
// (device, trace), ordered by each span's first buffered record. Records
// with a zero trace identity (everything that is not a stage) are skipped.
// This is a read-path helper: it allocates freely and must not be called
// from hot paths.
func (r *Ring) Groups() []SpanGroup {
	type key struct{ device, trace uint64 }
	var idx map[key]int
	var groups []SpanGroup
	for _, ev := range r.Events() {
		if ev.Trace == 0 {
			continue
		}
		if idx == nil {
			idx = make(map[key]int, 64)
		}
		k := key{ev.Device, ev.Trace}
		gi, ok := idx[k]
		if !ok {
			gi = len(groups)
			idx[k] = gi
			groups = append(groups, SpanGroup{Device: ev.Device, Trace: ev.Trace})
		}
		g := &groups[gi]
		g.Stages = append(g.Stages, ev)
		g.VT = max(g.VT, ev.VT)
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
func (r *Ring) ClosedSpans() int {
	closed := 0
	for _, g := range r.Groups() {
		if g.Complete {
			closed++
		}
	}
	return closed
}
