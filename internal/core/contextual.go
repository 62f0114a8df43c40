package core

import (
	"repro/internal/bandit"
	"repro/internal/bandit/contextual"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Contextual selection and deadline gating (DESIGN.md §11). The engine
// owns one contextualCtl whenever Config selects the "contextual" policy
// or sets a Deadline: per segment it extracts the feature vector once on
// the decision goroutine, predicts every arm's ratio/latency/reward with
// the online ridge predictor, installs reward priors into the contextual
// policies (warm start), and masks arms whose predicted encode+uplink
// latency misses the deadline — degrading to the fastest predicted
// ratio-feasible arm when nothing fits.
//
// Determinism: features are pure functions of the segment, the predictor
// is trained exclusively on deterministic quantities (achieved ratios,
// the virtual-seconds cost model, evaluator rewards) and never on
// measured durations, and every ctl method runs on the decision
// goroutine in decision order. A seeded run therefore reproduces the
// identical gate decisions, priors and trace events every time — the
// same contract the plain policies honour.

// ctxMinObservations is how many samples an arm's predictor needs before
// the deadline gate may reject the arm. A cold arm is never rejected:
// "predicted infeasible" requires a prediction, and letting cold arms
// through preserves the forced early exploration the warm start relies
// on.
const ctxMinObservations = 1

// ctxPhase is one bandit phase's (lossless or lossy) contextual state.
type ctxPhase struct {
	names []string
	pred  *contextual.Predictor
	// pol is non-nil only when this phase's policy is the contextual
	// one; deadline gating works under any policy, priors need the
	// contextual policy.
	pol *bandit.Contextual

	// Per-segment scratch, rewritten by begin() on the decision
	// goroutine.
	priors   []float64 // predicted reward (Optimism for cold arms)
	ratios   []float64 // predicted compression ratio
	lats     []float64 // predicted encode+uplink seconds
	have     []bool    // arm has >= ctxMinObservations samples
	feasible []bool    // arm passes the deadline gate this segment
	fallback int       // forced arm when nothing is feasible; -1 otherwise
}

// contextualCtl is the engine-side contextual layer.
type contextualCtl struct {
	deadline float64       // seconds; 0 disables the gate
	bw       sim.Bandwidth // this segment's link, set by begin; 0 drops the uplink term
	optimism float64
	costFn   func(op, codec string, points int) float64

	feats []float64

	lossless ctxPhase
	lossy    ctxPhase

	m *ctxMetrics

	// Per-segment outcome flags, folded into OnlineStats by account()
	// under statsMu.
	segRejects   int
	segFallback  bool
	segMiss      bool
	segViolation bool
}

// newContextualCtl builds the layer when the config asks for it (nil
// otherwise — the zero-cost disabled configuration).
func newContextualCtl(cfg Config, e *OnlineEngine) *contextualCtl {
	if cfg.BanditPolicy != "contextual" && cfg.Deadline <= 0 {
		return nil
	}
	c := &contextualCtl{
		deadline: cfg.Deadline.Seconds(),
		optimism: cfg.Bandit.Optimism,
		costFn:   e.costFn,
		feats:    make([]float64, 0, contextual.NumFeatures),
		m:        newCtxMetrics(cfg.Obs, cfg.DeviceID),
	}
	c.lossless = newCtxPhase(e.losslessNames, e.losslessMAB)
	c.lossy = newCtxPhase(e.lossyNames, e.lossyMAB)
	return c
}

func newCtxPhase(names []string, pol interface{}) ctxPhase {
	n := len(names)
	ph := ctxPhase{
		names:    names,
		pred:     contextual.NewPredictor(n, contextual.NumFeatures, 1),
		priors:   make([]float64, n),
		ratios:   make([]float64, n),
		lats:     make([]float64, n),
		have:     make([]bool, n),
		feasible: make([]bool, n),
		fallback: -1,
	}
	if cp, ok := pol.(*bandit.Contextual); ok {
		ph.pol = cp
	}
	return ph
}

// begin starts a segment on link bw: one feature extraction, then
// per-phase predictions, deadline feasibility and policy priors. The
// lossless deadline mask is final here; the lossy mask still needs the
// MinRatio feasibility intersection, which processLossy supplies to
// applyDeadline.
func (c *contextualCtl) begin(values []float64, bw sim.Bandwidth) {
	if c == nil {
		return
	}
	c.bw = bw
	c.feats = contextual.FeaturesInto(c.feats, values)
	c.segRejects = 0
	c.segFallback = false
	c.segMiss = false
	c.segViolation = false
	c.predictPhase(&c.lossless, len(values))
	c.predictPhase(&c.lossy, len(values))
}

// predictPhase fills one phase's per-segment prediction scratch and
// pushes the reward priors into its contextual policy.
func (c *contextualCtl) predictPhase(ph *ctxPhase, points int) {
	ph.fallback = -1
	for arm := range ph.names {
		if ph.pred.Observations(arm) < ctxMinObservations {
			ph.have[arm] = false
			ph.feasible[arm] = true // cannot reject without a prediction
			ph.priors[arm] = c.optimism
			ph.ratios[arm] = 0
			ph.lats[arm] = 0
			continue
		}
		t := ph.pred.Predict(arm, c.feats)
		ph.have[arm] = true
		ph.priors[arm] = t.Reward
		ph.ratios[arm] = t.Ratio
		ph.lats[arm] = t.Latency + c.uplinkSeconds(t.Ratio, points)
		ph.feasible[arm] = c.deadline <= 0 || ph.lats[arm] <= c.deadline
	}
	if ph.pol != nil {
		ph.pol.SetPriors(ph.priors)
	}
}

// uplinkSeconds is the predicted transmission time of a segment
// compressed to ratio: ratio × 8 bytes/point × points over the segment's
// link bandwidth. Without a configured link (ratio-override runs) the term
// is zero and the deadline constrains encode latency alone.
func (c *contextualCtl) uplinkSeconds(ratio float64, points int) float64 {
	bw := float64(c.bw)
	if bw <= 0 {
		return 0
	}
	if ratio < 0 {
		ratio = 0
	}
	return ratio * 8 * float64(points) / bw
}

// maskLossless intersects the lossless phase's deadline feasibility into
// allowed and reports whether any arm survives. Called with the
// phase-initial all-true mask; rejects are counted per masked arm.
func (c *contextualCtl) maskLossless(allowed []bool) bool {
	if c == nil || c.deadline <= 0 {
		return true
	}
	any := false
	for arm := range allowed {
		if !c.lossless.feasible[arm] {
			allowed[arm] = false
			c.segRejects++
			c.m.reject()
			continue
		}
		any = true
	}
	return any
}

// applyDeadline intersects the lossy phase's deadline feasibility into
// the ratio-feasible mask. When the intersection is empty the gate
// degrades gracefully: the ratio-feasible arm with the lowest predicted
// total latency is re-allowed (and recorded as the forced fallback), so
// the engine always selects *some* arm rather than dropping the segment.
func (c *contextualCtl) applyDeadline(id uint64, allowed []bool) {
	if c == nil || c.deadline <= 0 {
		return
	}
	ph := &c.lossy
	any := false
	fastest, fastestLat := -1, 0.0
	for arm := range allowed {
		if !allowed[arm] {
			continue
		}
		if fastest < 0 || ph.lats[arm] < fastestLat {
			fastest, fastestLat = arm, ph.lats[arm]
		}
		if !ph.feasible[arm] {
			allowed[arm] = false
			c.segRejects++
			c.m.reject()
			continue
		}
		any = true
	}
	if any || fastest < 0 {
		return
	}
	// Graceful degradation: every ratio-feasible arm misses the
	// predicted deadline, so force the fastest one (lowest predicted
	// encode+uplink; ties resolve to the lowest index, keeping the
	// choice deterministic).
	allowed[fastest] = true
	ph.fallback = fastest
	c.segFallback = true
	c.m.fallbackEvent(id, fastest, ph.names[fastest], fastestLat, c.deadline)
}

// observeLossless trains the lossless predictor on one completed trial
// and records the prediction error of any prior prediction. reward is
// the size reward the lossless phase optimizes.
func (c *contextualCtl) observeLossless(arm, points int, ratio, reward float64) {
	if c == nil {
		return
	}
	c.observe(&c.lossless, arm, points, ratio, reward)
}

// observeLossy trains the lossy predictor on the selected arm's outcome.
func (c *contextualCtl) observeLossy(arm, points int, ratio, reward float64) {
	if c == nil {
		return
	}
	c.observe(&c.lossy, arm, points, ratio, reward)
}

func (c *contextualCtl) observe(ph *ctxPhase, arm, points int, ratio, reward float64) {
	if arm < 0 || arm >= len(ph.names) {
		return
	}
	encCost := c.costFn("encode", ph.names[arm], points)
	if ph.have[arm] {
		// Error of the prediction made before this observation.
		c.m.predictionError(absf(ph.ratios[arm]-ratio),
			absf(ph.lats[arm]-(encCost+c.uplinkSeconds(ratio, points))))
	}
	ph.pred.Observe(arm, c.feats, contextual.Targets{
		Ratio:   ratio,
		Latency: encCost,
		Reward:  reward,
	})
}

// chosen finalizes a segment's contextual bookkeeping after the decision:
// the quality.contextual predict event for the selected arm, and the
// deadline miss/violation accounting against the deterministic cost
// model. lossy selects the phase.
func (c *contextualCtl) chosen(id uint64, arm, points int, lossy bool, ratio float64) {
	if c == nil {
		return
	}
	ph := &c.lossless
	if lossy {
		ph = &c.lossy
	}
	if arm < 0 || arm >= len(ph.names) {
		return
	}
	if ph.have[arm] {
		c.m.predictEvent(id, arm, ph.names[arm], lossy,
			ph.ratios[arm], absf(ph.ratios[arm]-ratio), ph.priors[arm], ph.lats[arm])
	}
	if c.deadline <= 0 {
		return
	}
	actual := c.costFn("encode", ph.names[arm], points) + c.uplinkSeconds(ratio, points)
	if actual > c.deadline {
		c.segMiss = true
		c.m.miss()
	}
	if !ph.feasible[arm] && arm != ph.fallback {
		// The gate's invariant: a predicted-infeasible arm is selectable
		// only as the explicit fallback. Anything else is a bug, counted
		// so tests and the BENCH cell can assert zero.
		c.segViolation = true
	}
}

// losslessCandidate and lossyCandidate report whether the deadline gate
// would have allowed arm this segment — the regret oracle mirrors the
// decision path's feasibility with these (quality.go).
func (c *contextualCtl) losslessCandidate(arm int) bool {
	if c == nil || c.deadline <= 0 {
		return true
	}
	return c.lossless.feasible[arm]
}

func (c *contextualCtl) lossyCandidate(arm int) bool {
	if c == nil || c.deadline <= 0 {
		return true
	}
	if c.lossy.fallback >= 0 {
		return arm == c.lossy.fallback
	}
	return c.lossy.feasible[arm]
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// ctxMetrics is the contextual layer's cached obs bundle, following the
// onlineMetrics pattern: nil when Config.Obs is unset, every method
// nil-receiver-safe, all emission on the decision goroutine.
type ctxMetrics struct {
	ring *obs.Ring
	// device stamps the records that belong to a segment's span (Device
	// and Trace), so Groups files them with the segment's stages.
	device uint64
	// health is this device's fleet-board row: deadline rejects and
	// fallbacks surface per device on /debug/fleet (nil rows no-op).
	health *obs.DeviceHealth

	rejects   *obs.Counter
	fallbacks *obs.Counter
	misses    *obs.Counter

	ratioErr *obs.Histogram
	latErr   *obs.Histogram
}

// ctxRatioErrBuckets bucket absolute ratio prediction errors (a ratio is
// in [0,1], so 0.5 is already a gross miss).
var ctxRatioErrBuckets = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}

func newCtxMetrics(o *obs.Observer, deviceID uint64) *ctxMetrics {
	if o == nil {
		return nil
	}
	reg := o.Registry()
	return &ctxMetrics{
		ring:      o.Ring(),
		device:    deviceID,
		health:    o.Fleet().Device(deviceID),
		rejects:   reg.Counter("core.online.deadline_rejects"),
		fallbacks: reg.Counter("core.online.deadline_fallbacks"),
		misses:    reg.Counter("core.online.deadline_misses"),
		ratioErr:  reg.Histogram("quality.contextual.ratio_error", ctxRatioErrBuckets),
		latErr:    reg.Histogram("quality.contextual.latency_error_seconds", obs.LatencyBuckets),
	}
}

func (m *ctxMetrics) reject() {
	if m == nil {
		return
	}
	m.rejects.Inc()
	m.health.NoteDeadlineReject(1)
}

func (m *ctxMetrics) miss() {
	if m == nil {
		return
	}
	m.misses.Inc()
}

func (m *ctxMetrics) predictionError(ratioErr, latErr float64) {
	if m == nil {
		return
	}
	m.ratioErr.Observe(ratioErr)
	m.latErr.Observe(latErr)
}

func (m *ctxMetrics) predictEvent(id uint64, arm int, codec string, lossy bool, predRatio, ratioErr, predReward, predLat float64) {
	if m == nil {
		return
	}
	m.ring.Record(obs.Event{
		Source: "quality.contextual", Kind: "predict", ID: id, Arm: arm,
		Codec: codec, Lossy: lossy, Ratio: predRatio, Value: ratioErr,
		Reward: predReward, Target: predLat,
	})
}

func (m *ctxMetrics) fallbackEvent(id uint64, arm int, codec string, predLat, deadline float64) {
	if m == nil {
		return
	}
	m.fallbacks.Inc()
	m.health.NoteDeadlineFallback()
	m.ring.Record(obs.Event{
		Source: "core.online", Kind: "deadline_fallback", ID: id, Device: m.device,
		Trace: obs.TraceOfSegment(id), Arm: arm, Codec: codec, Lossy: true,
		Value: predLat, Target: deadline,
	})
}
