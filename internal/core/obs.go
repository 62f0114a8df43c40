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
// Trace records — decisions and the engine-side lifecycle stages alike —
// are emitted on the decision goroutine only, in decision order, and carry
// no wall-clock fields: a seeded run reproduces the identical record
// sequence every time (DESIGN.md §7, §9).

// onlineMetrics is the OnlineEngine's cached obs handles.
type onlineMetrics struct {
	ring     *obs.Ring
	reg      *obs.Registry
	deviceID uint64 // labels this engine's stage records
	// id, trace, vt and arm describe the segment being decided: its ID and
	// trace identity, its virtual time — cost-model seconds since ingest,
	// accumulated across its stages — and the arm its select stage chose.
	// Decision-goroutine only, reset by spanBegin.
	id, trace uint64
	vt        float64
	arm       int

	segments   *obs.Counter
	lossless   *obs.Counter
	lossy      *obs.Counter
	violations *obs.Counter
	infeasible *obs.Counter

	effTarget *obs.Gauge

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
		ring:       o.Ring(),
		reg:        reg,
		deviceID:   deviceID,
		segments:   reg.Counter("core.online.segments"),
		lossless:   reg.Counter("core.online.segments_lossless"),
		lossy:      reg.Counter("core.online.segments_lossy"),
		violations: reg.Counter("core.online.bandwidth_violations"),
		infeasible: reg.Counter("core.online.no_feasible"),
		effTarget:  reg.Gauge("core.online.effective_target"),
		compress:   make(map[string]*obs.Histogram),
	}
}

// trial records one codec trial's duration (decision goroutine only).
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

// span records one lifecycle stage of the segment being decided, stamped
// with its identity and current virtual time.
func (m *onlineMetrics) span(st obs.Stage, ev obs.Event) {
	ev.Source, ev.ID, ev.Device, ev.Trace, ev.VT = "core.online", m.id, m.deviceID, m.trace, m.vt
	m.ring.RecordStage(st, ev)
}

// spanBegin opens a segment's span: it resets the per-segment state and
// records the ingest stage.
func (m *onlineMetrics) spanBegin(id uint64, points int) {
	if m == nil {
		return
	}
	m.id, m.trace, m.vt, m.arm = id, obs.TraceOfSegment(id), 0, -1
	m.span(obs.StageIngest, obs.Event{Arm: -1, Value: float64(points)})
}

// spanFeatures records the features stage: the contextual layer extracted
// the segment's feature vector and predicted every arm (zero cost in the
// virtual-time model — prediction is not a codec operation).
func (m *onlineMetrics) spanFeatures() {
	if m == nil {
		return
	}
	m.span(obs.StageFeatures, obs.Event{Arm: -1})
}

// spanTrial advances the segment's virtual time by one codec trial's
// cost-model duration and records the trial stage.
func (m *onlineMetrics) spanTrial(arm int, codec string, cost float64) {
	if m == nil {
		return
	}
	m.vt += cost
	m.span(obs.StageTrial, obs.Event{Arm: arm, Codec: codec, Dur: cost})
}

// spanSelect records the winning arm's selection.
func (m *onlineMetrics) spanSelect(arm int, codec string) {
	if m == nil {
		return
	}
	m.arm = arm
	m.span(obs.StageSelect, obs.Event{Arm: arm, Codec: codec})
}

// decision records the per-segment outcome: counters, gauges, and the
// one decision event per bandit pull cycle, which is also the segment's
// encode stage — the winning encoding leaving the engine.
func (m *onlineMetrics) decision(res Result, target float64) {
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
	m.span(obs.StageEncode, obs.Event{
		Kind: "decision", Arm: m.arm, Codec: res.Codec, Lossy: res.Lossy,
		Ratio: res.Ratio, Reward: res.Reward, Target: target,
	})
}

// violation counts a segment whose egress exceeded the link capacity.
func (m *onlineMetrics) violation() {
	if m == nil {
		return
	}
	m.violations.Inc()
}

// noFeasible records the hard failure: no codec can reach the target.
func (m *onlineMetrics) noFeasible(id uint64, target float64) {
	if m == nil {
		return
	}
	m.infeasible.Inc()
	m.ring.Record(obs.Event{
		Source: "core.online", Kind: "no_feasible", ID: id,
		Target: target, Err: ErrNoFeasibleCodec.Error(),
	})
}

// offlineMetrics is the OfflineEngine's cached obs handles.
type offlineMetrics struct {
	ring *obs.Ring
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
		ring:      o.Ring(),
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
func (m *offlineMetrics) ingest(id uint64, codec string, ratio, util float64, stored int) {
	if m == nil {
		return
	}
	m.ingests.Inc()
	m.util.Set(util)
	m.stored.Set(float64(stored))
	m.ring.Record(obs.Event{
		Source: "core.offline", Kind: "ingest", ID: id,
		Codec: codec, Ratio: ratio, Value: util,
	})
}

// recoded records one completed recode (bandit-selected or fallback).
// start is the recode's wall-clock begin; the elapsed time is read here,
// after the nil check, so the disabled path adds no clock read.
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
	m.ring.Record(obs.Event{
		Source: "core.offline", Kind: kind, ID: id,
		Codec: codec, Lossy: true, Ratio: ratio,
		Reward: reward, Target: target, Value: util,
	})
}

// recodeSkip counts recodes deferred for lack of CPU budget.
func (m *offlineMetrics) recodeSkip() {
	if m == nil {
		return
	}
	m.skips.Inc()
}
