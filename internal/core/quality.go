package core

import (
	"sync"

	"repro/internal/bandit"
	"repro/internal/compress"
	"repro/internal/obs/quality"
)

// Online regret oracle (Config.Quality): scores sampled decisions against
// every arm the decision path could have chosen, so the quality tracker
// can report regret instead of inferring convergence from figure shapes.
//
// Determinism: the oracle's candidate set and rewards are pure functions
// of (segment values, effective target, arm lists) — the same inputs the
// decision path uses — so a seeded run produces identical regret events
// on every run. The exception is a TargetThroughput term, whose reward
// divides by the trial's wall time (Evaluator.metric): under a speed
// target the rewards, and so the regret events, vary from run to run
// (ROADMAP item 12). The trials the decision path already ran are reused
// purely as a compute saving: a missing trial is shadow-computed with the
// same pure function and yields the same bytes. Sampling (every Nth
// decision) is keyed on the segment ID, never on timing.
//
// Non-perturbation: the oracle observes but never participates. It holds
// its own Evaluator (the engine's is stateful — the running
// max-throughput normalizer — and must not see oracle trials), and it
// never calls Select/Update on a policy.
// TestQualityDoesNotPerturbDecisions pins this down.

// qualityOracle is the engine-side half of the regret oracle; the
// aggregation half lives in internal/obs/quality.
type qualityOracle struct {
	tracker *quality.Tracker
	eval    *Evaluator
}

// newQualityOracle builds the oracle when cfg.Quality is set (nil
// otherwise — the zero-cost disabled configuration).
func newQualityOracle(cfg Config) (*qualityOracle, error) {
	if cfg.Quality == nil {
		return nil, nil
	}
	eval, err := NewEvaluator(cfg.Objective)
	if err != nil {
		return nil, err
	}
	return &qualityOracle{
		tracker: quality.NewTracker(cfg.Obs, *cfg.Quality),
		eval:    eval,
	}, nil
}

// sampled reports whether decision id gets the full candidate evaluation.
func (o *qualityOracle) sampled(id uint64) bool {
	return o != nil && o.tracker.Sampled(id)
}

// decisionTrials captures the codec trials one sampled decision actually
// consumed, keyed by arm, so the oracle reuses them instead of
// recomputing. Allocated only for sampled decisions; the nil value (the
// common case) makes the note methods no-ops.
type decisionTrials struct {
	lossless map[int]losslessTrial
	lossy    map[int]lossyTrial
}

func newDecisionTrials() *decisionTrials {
	return &decisionTrials{
		lossless: make(map[int]losslessTrial),
		lossy:    make(map[int]lossyTrial),
	}
}

// noteLossless records a consumed lossless trial for the oracle.
func (d *decisionTrials) noteLossless(arm int, t losslessTrial) {
	if d != nil {
		d.lossless[arm] = t
	}
}

// noteLossy records a consumed lossy trial for the oracle.
func (d *decisionTrials) noteLossy(arm int, t lossyTrial) {
	if d != nil {
		d.lossy[arm] = t
	}
}

// observe feeds one successful decision to the tracker: attribution and
// switch counters for every decision, the full oracle evaluation for
// sampled ones (trials non-nil). Decision goroutine only; the regret
// event is emitted synchronously here, right after the decision event,
// which keeps the trace sequence deterministic.
func (o *qualityOracle) observe(e *OnlineEngine, res Result, values []float64, trials *decisionTrials, target float64) {
	if o == nil {
		return
	}
	o.tracker.NoteDecision(res.Codec, res.Reward)
	if trials == nil {
		return
	}
	if res.Lossy {
		o.observeLossy(e, res, values, trials, target)
	} else {
		o.observeLossless(e, res, values, trials, target)
	}
}

// observeLossless scores every lossless arm on the sampled segment. A
// candidate is feasible when its achieved ratio meets the target — the
// same acceptance rule processLossless applies — and its reward is the
// size reward the lossless phase optimizes.
func (o *qualityOracle) observeLossless(e *OnlineEngine, res Result, values []float64, cached *decisionTrials, target float64) {
	n := len(e.losslessNames)
	trials := make([]losslessTrial, n)
	have := make([]bool, n)
	reused, shadow := 0, 0
	var tasks []func()
	for arm := 0; arm < n; arm++ {
		if !e.ctx.losslessCandidate(arm) {
			continue // deadline-masked on the decision path this segment
		}
		if t, ok := cached.lossless[arm]; ok {
			trials[arm], have[arm] = t, true
			reused++
			continue
		}
		codec, ok := e.reg.Lookup(e.losslessNames[arm])
		if !ok {
			continue
		}
		tasks = append(tasks, func() { trials[arm] = runLosslessTrial(codec, values) })
		have[arm] = true
		shadow++
	}
	runShadow(tasks)

	candidates := make([]quality.ArmOutcome, 0, n)
	chosen := quality.ArmOutcome{Arm: -1, Codec: res.Codec, Reward: res.Reward}
	for arm := 0; arm < n; arm++ {
		if !have[arm] || trials[arm].err != nil {
			continue
		}
		ratio := trials[arm].enc.Ratio()
		if target < 1 && ratio > target+ratioSlack {
			continue
		}
		out := quality.ArmOutcome{Arm: arm, Codec: e.losslessNames[arm], Reward: 1 - minf(ratio, 1)}
		candidates = append(candidates, out)
		if out.Codec == res.Codec {
			chosen = out
		}
	}
	o.tracker.ObserveSample(res.SegmentID, chosen, candidates, reused, shadow)
}

// observeLossy scores every target-feasible lossy arm on the sampled
// segment with the oracle's private evaluator. Feasibility uses the same
// MinRatio gate processLossy applies (MinRatio is pure, so recomputing
// yields identical values).
func (o *qualityOracle) observeLossy(e *OnlineEngine, res Result, values []float64, cached *decisionTrials, target float64) {
	n := len(e.lossyNames)
	trials := make([]lossyTrial, n)
	have := make([]bool, n)
	reused, shadow := 0, 0
	var tasks []func()
	for arm := 0; arm < n; arm++ {
		c, ok := e.reg.Lookup(e.lossyNames[arm])
		if !ok {
			continue
		}
		lc := c.(compress.LossyCodec)
		if lc.MinRatio(values) > target {
			continue // the decision path could not have chosen it
		}
		if !e.ctx.lossyCandidate(arm) {
			continue // deadline-masked (or outside the forced fallback)
		}
		if t, ok := cached.lossy[arm]; ok {
			trials[arm], have[arm] = t, true
			reused++
			continue
		}
		tasks = append(tasks, func() { trials[arm] = runLossyTrial(lc, values, target) })
		have[arm] = true
		shadow++
	}
	runShadow(tasks)

	candidates := make([]quality.ArmOutcome, 0, n)
	chosen := quality.ArmOutcome{Arm: -1, Codec: res.Codec, Reward: res.Reward}
	// Every arm is scored against the same raw: take its answers once.
	var scratch [4]float64
	ref := o.eval.Reference(scratch[:0], values)
	for arm := 0; arm < n; arm++ {
		t := trials[arm]
		if !have[arm] || t.err != nil || t.decErr != nil {
			continue
		}
		reward, _ := o.eval.ScoreAgainst(ref, len(values), Observation{
			Decoded: t.decoded, CompressedBytes: t.enc.Size(), Duration: t.dur,
		})
		out := quality.ArmOutcome{Arm: arm, Codec: e.lossyNames[arm], Reward: reward}
		candidates = append(candidates, out)
		if out.Codec == res.Codec {
			chosen = out
		}
	}
	o.tracker.ObserveSample(res.SegmentID, chosen, candidates, reused, shadow)
}

// runShadow executes the oracle's missing trials on shadow goroutines —
// never inline in the decision code path — and waits for them. Each task
// writes its own pre-assigned slot, so the WaitGroup is the only
// synchronization. Trials are pure (no events, no RNG, no engine state),
// so where they run cannot affect determinism; the wait only costs time
// on sampled decisions.
func runShadow(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for _, task := range tasks {
		go func() {
			defer wg.Done()
			task()
		}()
	}
	wg.Wait()
}

// Quality exposes the engine's decision-quality tracker (nil when
// Config.Quality is unset) for snapshot readers like the benchmark
// emitter.
func (e *OnlineEngine) Quality() *quality.Tracker {
	if e.qo == nil {
		return nil
	}
	return e.qo.tracker
}

// armStats is the tracker's live bandit view (quality.SetArmSource):
// per phase, each arm's estimate, play count and cumulative reward.
// Called at snapshot time from arbitrary goroutines; the policy accessors
// take the policy locks.
func (e *OnlineEngine) armStats() map[string][]quality.ArmStat {
	return map[string][]quality.ArmStat{
		"lossless": armStatsFor(e.losslessNames, e.losslessMAB),
		"lossy":    armStatsFor(e.lossyNames, e.lossyMAB),
	}
}

func armStatsFor(names []string, pol bandit.Policy) []quality.ArmStat {
	est := pol.Estimates()
	rew := pol.RewardsInto(nil)
	counts := pol.Counts()
	out := make([]quality.ArmStat, len(names))
	for i, name := range names {
		out[i] = quality.ArmStat{Codec: name, Count: counts[i], Estimate: est[i], RewardSum: rew[i]}
	}
	return out
}
