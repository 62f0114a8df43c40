package core

import (
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
// on every run; a speed term's T_c is the cost model's, like the decision
// path's. The oracle reruns every candidate trial itself, on the decision
// goroutine after the decision, with the same pure function the decision
// path ran, so a trial the decision already ran yields the same bytes
// again. Sampling (every Nth decision) is keyed on the segment ID, never
// on timing.
//
// Non-perturbation: the oracle observes but never participates. It holds
// its own Evaluator (the engine's is stateful — the running
// max-throughput normalizer — and must not see oracle trials) and its own
// trial buffers, and it never calls Select/Update on a policy.
// TestQualityDoesNotPerturbDecisions pins this down.

// qualityOracle is the engine-side half of the regret oracle; the
// aggregation half lives in internal/obs/quality.
type qualityOracle struct {
	tracker *quality.Tracker
	eval    *Evaluator

	// Decision-goroutine-only scratch, reused across sampled decisions:
	// every candidate trial encodes into enc and decodes into dec, and is
	// scored into cands before the next one runs.
	enc   []byte
	dec   []float64
	cands []quality.ArmOutcome
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

// observe feeds one successful decision to the tracker: attribution and
// switch counters for every decision, the full oracle evaluation for
// sampled ones. Decision goroutine only; the regret event is emitted
// synchronously here, right after the decision event, which keeps the
// trace sequence deterministic.
func (o *qualityOracle) observe(e *OnlineEngine, res Result, values []float64, target float64) {
	if o == nil {
		return
	}
	o.tracker.NoteDecision(res.Codec, res.Reward)
	if !o.tracker.Sampled(res.SegmentID) {
		return
	}
	o.cands = o.cands[:0]
	if res.Lossy {
		o.scoreLossy(e, values, target)
	} else {
		o.scoreLossless(e, values, target)
	}
	chosen := quality.ArmOutcome{Arm: -1, Codec: res.Codec, Reward: res.Reward}
	for _, c := range o.cands {
		if c.Codec == res.Codec {
			chosen = c
		}
	}
	o.tracker.ObserveSample(res.SegmentID, chosen, o.cands)
}

// scoreLossless scores every lossless arm on the sampled segment. A
// candidate is feasible when its achieved ratio meets the target — the
// same acceptance rule processLossless applies — and its reward is the
// size reward the lossless phase optimizes.
func (o *qualityOracle) scoreLossless(e *OnlineEngine, values []float64, target float64) {
	for arm, name := range e.losslessNames {
		if !e.ctx.losslessCandidate(arm) {
			continue // deadline-masked on the decision path this segment
		}
		codec, ok := e.reg.Lookup(name)
		if !ok {
			continue
		}
		t := runLosslessTrial(o.enc, codec, values)
		if t.err != nil {
			continue
		}
		o.enc = t.enc.Data
		ratio := t.enc.Ratio()
		if target < 1 && ratio > target+ratioSlack {
			continue
		}
		o.cands = append(o.cands, quality.ArmOutcome{Arm: arm, Codec: name, Reward: 1 - minf(ratio, 1)})
	}
}

// scoreLossy scores every target-feasible lossy arm on the sampled
// segment with the oracle's private evaluator. Feasibility uses the same
// MinRatio gate processLossy applies (MinRatio is pure, so recomputing
// yields identical values).
func (o *qualityOracle) scoreLossy(e *OnlineEngine, values []float64, target float64) {
	// Every arm is scored against the same raw: take its answers once.
	var scratch [4]float64
	ref := o.eval.Reference(scratch[:0], values)
	for arm, name := range e.lossyNames {
		c, ok := e.reg.Lookup(name)
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
		t := runLossyTrial(o.enc, o.dec, lc, values, target)
		if t.err != nil || t.decErr != nil {
			continue
		}
		o.enc, o.dec = t.enc.Data, t.decoded
		reward, _ := o.eval.ScoreAgainst(ref, len(values), Observation{
			Decoded: t.decoded, CompressedBytes: t.enc.Size(),
			Duration: costDuration(e.costFn("encode", name, len(values))),
		})
		o.cands = append(o.cands, quality.ArmOutcome{Arm: arm, Codec: name, Reward: reward})
	}
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
