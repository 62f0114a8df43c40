package core

import (
	"time"

	"repro/internal/obs"
)

// Engine instrumentation. Both engines cache their obs handles in a
// metrics bundle built once at construction, so the hot path never does a
// registry lookup. A nil bundle is the disabled configuration: every
// method starts with a nil-receiver check, so disabled observability
// costs one predictable branch per call site and performs no clock reads
// beyond the ones the engines already make for Result.Duration.
//
// Trace events are emitted on the decision goroutine only, in decision
// order, and carry no wall-clock fields — a seeded run reproduces the
// identical event sequence every time (DESIGN.md §7, §9).

// onlineMetrics is the OnlineEngine's cached obs handles.
type onlineMetrics struct {
	sink obs.TraceSink
	reg  *obs.Registry
	// spans is the segment-lifecycle span ring (nil when spans are
	// disabled on the observer); deviceID labels this engine's records.
	spans    *obs.SpanRing
	deviceID uint64
	// vt accumulates the current segment's virtual time — cost-model
	// seconds since ingest — across its span stages. Decision-goroutine
	// only, reset by spanBegin.
	vt float64

	segments   *obs.Counter
	lossless   *obs.Counter
	lossy      *obs.Counter
	violations *obs.Counter
	infeasible *obs.Counter

	effTarget *obs.Gauge
	pressure  *obs.Gauge

	// compress memoizes per-codec trial-latency histograms. Only the
	// decision goroutine touches the map, so it needs no lock.
	compress map[string]*obs.Histogram
}

func newOnlineMetrics(o *obs.Observer, deviceID uint64) *onlineMetrics {
	if o == nil {
		return nil
	}
	reg := o.Registry()
	return &onlineMetrics{
		sink:       o.Sink(),
		reg:        reg,
		spans:      o.Spans(),
		deviceID:   deviceID,
		segments:   reg.Counter("core.online.segments"),
		lossless:   reg.Counter("core.online.segments_lossless"),
		lossy:      reg.Counter("core.online.segments_lossy"),
		violations: reg.Counter("core.online.bandwidth_violations"),
		infeasible: reg.Counter("core.online.no_feasible"),
		effTarget:  reg.Gauge("core.online.effective_target"),
		pressure:   reg.Gauge("core.online.pressure"),
		compress:   make(map[string]*obs.Histogram),
	}
}

// trial records one codec trial's duration (decision goroutine only).
//
// adaedge:decision-goroutine
func (m *onlineMetrics) trial(codec string, d time.Duration) {
	if m == nil {
		return
	}
	h, ok := m.compress[codec]
	if !ok {
		h = m.reg.Histogram("core.online.compress_seconds."+codec, obs.LatencyBuckets)
		m.compress[codec] = h
	}
	h.Observe(d.Seconds())
}

// spanBegin opens a traced segment's span: it resets the virtual-time
// accumulator and records the ingest stage, returning the segment's trace
// identity. When spans are disabled it returns 0, which turns every later
// span call for this segment into a single-branch no-op — the nil-observer
// hot path stays allocation- and clock-free.
//
// adaedge:decision-goroutine
func (m *onlineMetrics) spanBegin(id uint64, points int) uint64 {
	if m == nil || m.spans == nil {
		return 0
	}
	trace := obs.TraceOfSegment(id)
	m.vt = 0
	m.spans.Record(obs.StageIngest, obs.SpanStage{
		Device: m.deviceID, Trace: trace, Arm: -1, Value: float64(points),
	})
	return trace
}

// spanFeatures records the features stage: the contextual layer extracted
// the segment's feature vector and predicted every arm (zero cost in the
// virtual-time model — prediction is not a codec operation).
//
// adaedge:decision-goroutine
func (m *onlineMetrics) spanFeatures(trace uint64) {
	if m == nil || trace == 0 {
		return
	}
	m.spans.Record(obs.StageFeatures, obs.SpanStage{
		Device: m.deviceID, Trace: trace, Arm: -1, VT: m.vt,
	})
}

// spanTrial advances the segment's virtual time by one codec trial's
// cost-model duration and records the trial stage.
//
// adaedge:decision-goroutine
func (m *onlineMetrics) spanTrial(trace uint64, arm int, codec string, cost float64) {
	if m == nil || trace == 0 {
		return
	}
	m.vt += cost
	m.spans.Record(obs.StageTrial, obs.SpanStage{
		Device: m.deviceID, Trace: trace, Arm: arm, Codec: codec,
		VT: m.vt, Dur: cost,
	})
}

// spanSelect records the winning arm's selection.
//
// adaedge:decision-goroutine
func (m *onlineMetrics) spanSelect(trace uint64, arm int, codec string) {
	if m == nil || trace == 0 {
		return
	}
	m.spans.Record(obs.StageSelect, obs.SpanStage{
		Device: m.deviceID, Trace: trace, Arm: arm, Codec: codec, VT: m.vt,
	})
}

// spanEncode closes the engine half of the span: the winning encoding
// leaves the decision path with the achieved ratio in Value.
//
// adaedge:decision-goroutine
func (m *onlineMetrics) spanEncode(trace uint64, arm int, codec string, ratio float64) {
	if m == nil || trace == 0 {
		return
	}
	m.spans.Record(obs.StageEncode, obs.SpanStage{
		Device: m.deviceID, Trace: trace, Arm: arm, Codec: codec,
		VT: m.vt, Value: ratio,
	})
}

// decision records the per-segment outcome: counters, gauges, and the
// one decision-trace event per bandit pull cycle.
//
// adaedge:decision-goroutine
func (m *onlineMetrics) decision(res Result, target, pressure float64) {
	if m == nil {
		return
	}
	m.segments.Inc()
	if res.Lossy {
		m.lossy.Inc()
	} else {
		m.lossless.Inc()
	}
	m.effTarget.Set(target)
	m.pressure.Set(pressure)
	if m.sink != nil {
		m.sink.Record(obs.Event{
			Source: "core.online", Kind: "decision", ID: res.SegmentID,
			Codec: res.Codec, Lossy: res.Lossy, Ratio: res.Ratio,
			Reward: res.Reward, Target: target, Pressure: pressure,
		})
	}
}

// violation counts a segment whose egress exceeded the link capacity.
//
// adaedge:decision-goroutine
func (m *onlineMetrics) violation() {
	if m == nil {
		return
	}
	m.violations.Inc()
}

// noFeasible records the hard failure: no codec can reach the target.
//
// adaedge:decision-goroutine
func (m *onlineMetrics) noFeasible(id uint64, target, pressure float64) {
	if m == nil {
		return
	}
	m.infeasible.Inc()
	if m.sink != nil {
		m.sink.Record(obs.Event{
			Source: "core.online", Kind: "no_feasible", ID: id,
			Target: target, Pressure: pressure, Err: ErrNoFeasibleCodec.Error(),
		})
	}
}

// offlineMetrics is the OfflineEngine's cached obs handles.
type offlineMetrics struct {
	sink obs.TraceSink
	reg  *obs.Registry

	ingests   *obs.Counter
	recodes   *obs.Counter
	virtual   *obs.Counter
	fallbacks *obs.Counter
	skips     *obs.Counter

	util   *obs.Gauge
	stored *obs.Gauge

	// recode memoizes per-codec recode-latency histograms; single ingest
	// goroutine, no lock needed.
	recode map[string]*obs.Histogram
}

func newOfflineMetrics(o *obs.Observer) *offlineMetrics {
	if o == nil {
		return nil
	}
	reg := o.Registry()
	return &offlineMetrics{
		sink:      o.Sink(),
		reg:       reg,
		ingests:   reg.Counter("core.offline.ingests"),
		recodes:   reg.Counter("core.offline.recodes"),
		virtual:   reg.Counter("core.offline.recodes_virtual"),
		fallbacks: reg.Counter("core.offline.fallbacks"),
		skips:     reg.Counter("core.offline.recode_skips"),
		util:      reg.Gauge("core.offline.utilization"),
		stored:    reg.Gauge("core.offline.segments_stored"),
		recode:    make(map[string]*obs.Histogram),
	}
}

// ingest records one stored segment: the lossless codec chosen and the
// achieved ratio, plus the post-store space state.
//
// adaedge:decision-goroutine
func (m *offlineMetrics) ingest(id uint64, codec string, ratio, util float64, stored int) {
	if m == nil {
		return
	}
	m.ingests.Inc()
	m.util.Set(util)
	m.stored.Set(float64(stored))
	if m.sink != nil {
		m.sink.Record(obs.Event{
			Source: "core.offline", Kind: "ingest", ID: id,
			Codec: codec, Ratio: ratio, Value: util,
		})
	}
}

// recoded records one completed recode (bandit-selected or fallback).
// start is the recode's wall-clock begin; the elapsed time is read here,
// after the nil check, so the disabled path adds no clock read.
//
// adaedge:decision-goroutine
// adaedge:perf-timer
func (m *offlineMetrics) recoded(id uint64, codec string, target, ratio, reward, util float64, virtual, fallback bool, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.recodes.Inc()
	if virtual {
		m.virtual.Inc()
	}
	kind := "recode"
	if fallback {
		m.fallbacks.Inc()
		kind = "fallback"
	}
	h, ok := m.recode[codec]
	if !ok {
		h = m.reg.Histogram("core.offline.recode_seconds."+codec, obs.LatencyBuckets)
		m.recode[codec] = h
	}
	h.Observe(d.Seconds())
	m.util.Set(util)
	if m.sink != nil {
		m.sink.Record(obs.Event{
			Source: "core.offline", Kind: kind, ID: id,
			Codec: codec, Lossy: true, Ratio: ratio,
			Reward: reward, Target: target, Value: util,
		})
	}
}

// recodeSkip counts recodes deferred for lack of CPU budget.
//
// adaedge:decision-goroutine
func (m *offlineMetrics) recodeSkip() {
	if m == nil {
		return
	}
	m.skips.Inc()
}
