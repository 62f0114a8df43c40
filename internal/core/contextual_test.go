package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs/quality"
	"repro/internal/query"
	"repro/internal/sim"
)

// ctxConfig is the contextual policy with the quality oracle attached and
// an optional deadline.
func ctxConfig(deadline time.Duration) Config {
	return Config{
		TargetRatioOverride: 0.15,
		Objective:           AggTarget(query.Max),
		BanditPolicy:        "contextual",
		Deadline:            deadline,
		Seed:                42,
		Quality:             &quality.Config{SampleEvery: 4},
	}
}

// TestContextualTraceDeterministic extends the §9 invariant to the
// contextual layer: features, predictions, priors, deadline gating and
// the quality.contextual events are all pure functions of the seeded
// segment stream, so the full trace is byte-identical across reruns.
func TestContextualTraceDeterministic(t *testing.T) {
	run := runSeededTwice(t, ctxConfig(20*time.Microsecond), 80)
	if len(run.Events) == 0 {
		t.Fatal("instrumented contextual run emitted no trace events")
	}
	predicts := 0
	for _, ev := range run.Events {
		if ev.Source == "quality.contextual" && ev.Kind == "predict" {
			predicts++
		}
	}
	if predicts == 0 {
		t.Fatal("no quality.contextual predict events — the predictor never warmed up")
	}
	if run.Stats.DeadlineViolations != 0 {
		t.Fatalf("deadline violations = %d, want 0", run.Stats.DeadlineViolations)
	}
}

// TestContextualWithoutDeadlineDeterministic pins the plain contextual
// policy (no gate) to the same determinism contract.
func TestContextualWithoutDeadlineDeterministic(t *testing.T) {
	runSeededTwice(t, ctxConfig(0), 60)
}

// TestDeadlineGateNeverViolates is the gating property test: across a
// sweep of deadlines — from generous to unmeetable — every segment gets
// some codec (the engine never drops a segment because of the gate) and
// no predicted-infeasible arm is ever selected outside the explicit
// fallback path.
func TestDeadlineGateNeverViolates(t *testing.T) {
	const segments = 60
	for _, d := range []time.Duration{
		time.Millisecond,      // everything fits
		20 * time.Microsecond, // slow lossless codecs rejected
		5 * time.Microsecond,  // only the cheap transforms fit
		200 * time.Nanosecond, // nothing fits: pure fallback regime
	} {
		run := runSeeded(t, ctxConfig(d), segments)
		if len(run.Results) != segments {
			t.Fatalf("deadline %v: %d results, want %d — the gate dropped segments", d, len(run.Results), segments)
		}
		for _, r := range run.Results {
			if r.Codec == "" {
				t.Fatalf("deadline %v: segment %d decided with no codec", d, r.SegmentID)
			}
		}
		if run.Stats.DeadlineViolations != 0 {
			t.Fatalf("deadline %v: %d violations, want 0", d, run.Stats.DeadlineViolations)
		}
	}
}

// TestDeadlineTightForcesFallback pins the degradation path: a deadline
// below every codec's cost-model latency must route segments through the
// fastest-predicted fallback (with misses recorded) instead of failing.
func TestDeadlineTightForcesFallback(t *testing.T) {
	run := runSeeded(t, ctxConfig(200*time.Nanosecond), 60)
	stats := run.Stats
	if stats.DeadlineFallbacks == 0 {
		t.Fatal("unmeetable deadline produced no fallbacks")
	}
	if stats.DeadlineMisses == 0 {
		t.Fatal("unmeetable deadline recorded no misses")
	}
	if stats.DeadlineViolations != 0 {
		t.Fatalf("violations = %d, want 0", stats.DeadlineViolations)
	}
	fallbackEvents := 0
	for _, ev := range run.Events {
		if ev.Source == "core.online" && ev.Kind == "deadline_fallback" {
			fallbackEvents++
		}
	}
	if fallbackEvents != stats.DeadlineFallbacks {
		t.Fatalf("fallback events (%d) disagree with stats (%d)", fallbackEvents, stats.DeadlineFallbacks)
	}
}

// TestDeadlineWorksUnderPlainPolicy checks the gate is policy-agnostic:
// Config.Deadline alone (default ε-greedy) builds the contextual layer
// and enforces the same invariants.
func TestDeadlineWorksUnderPlainPolicy(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.15,
		Objective:           AggTarget(query.Max),
		Deadline:            5 * time.Microsecond,
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.ctx == nil {
		t.Fatal("Deadline alone did not build the contextual layer")
	}
	results, err := RunOnlineSegments(eng, cbfSegments(t, 50, 90))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 50 {
		t.Fatalf("%d results, want 50", len(results))
	}
	if s := eng.Stats(); s.DeadlineViolations != 0 {
		t.Fatalf("violations = %d, want 0", s.DeadlineViolations)
	}
}

// TestContextualPolicyValidation covers the new policy name end to end.
func TestContextualPolicyValidation(t *testing.T) {
	if _, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2, Objective: AggTarget(query.Max),
		BanditPolicy: "contextual",
	}); err != nil {
		t.Fatalf("contextual policy rejected: %v", err)
	}
	if _, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2, Objective: AggTarget(query.Max),
		BanditPolicy: "contextal",
	}); err == nil {
		t.Fatal("typo'd policy name accepted")
	}
}

// TestRetargetReachesDeadlineGate is the regression test for a gate that
// kept the link it was built with: after Retarget to a slower link, the
// deadline gate's predicted uplink term must follow the new link. On a
// 5G link every lossless arm fits a 1ms deadline; on 2G the same arms'
// predicted upload alone misses it, so the gate must start rejecting.
func TestRetargetReachesDeadlineGate(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		IngestRate: 2000,
		Bandwidth:  sim.Net5G,
		Deadline:   time.Millisecond,
		Objective:  SingleTarget(TargetRatio),
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	segs := cbfSegments(t, 60, 90)
	for _, s := range segs[:30] {
		if _, _, err := eng.Process(s.Values, s.Label); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.Stats(); st.DeadlineRejects != 0 || st.LossySegments != 0 {
		t.Fatalf("on 5G: stats %+v, want every segment lossless and no rejects", st)
	}

	eng.Retarget(sim.Net2G)
	for _, s := range segs[30:] {
		if _, _, err := eng.Process(s.Values, s.Label); err != nil {
			t.Fatal(err)
		}
		if got, want := eng.ctx.uplinkSeconds(0.5, 128), 0.5*8*128/float64(sim.Net2G); got != want {
			t.Fatalf("predicted uplink term after Retarget(2G) = %v s, want %v s", got, want)
		}
	}
	st := eng.Stats()
	if st.DeadlineRejects == 0 {
		t.Fatal("after Retarget(2G) the gate rejected nothing: it still predicts the 5G upload")
	}
	if st.DeadlineViolations != 0 {
		t.Fatalf("deadline violations = %d, want 0", st.DeadlineViolations)
	}
}

// TestDeadlineGateReadsCostModel pins the gate's arithmetic: a warm arm's
// latency is exactly Config.CodecCost's encode seconds plus the uplink
// seconds of the ratio the predictor expects, on the segment's live link,
// and the arm is feasible exactly when that meets the deadline. The cost
// model prices the zlib family at a second a segment, so the gate must
// reject it as soon as it is warm and keep the cheap arms. The link drops
// from 4G to 3G halfway, so both phases have warm arms by the end.
func TestDeadlineGateReadsCostModel(t *testing.T) {
	cost := func(op, codec string, points int) float64 {
		if strings.HasPrefix(codec, "zlib") {
			return 1
		}
		return float64(len(codec)*points) * 1e-9
	}
	eng, err := NewOnlineEngine(Config{
		IngestRate:   4e6,
		Bandwidth:    sim.Net4G,
		Deadline:     time.Millisecond,
		Objective:    SingleTarget(TargetRatio),
		BanditPolicy: "contextual",
		CodecCost:    cost,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	segs := cbfSegments(t, 81, 12)
	if _, err := RunOnlineSegments(eng, segs[:40]); err != nil {
		t.Fatal(err)
	}
	eng.Retarget(sim.Net3G)
	if _, err := RunOnlineSegments(eng, segs[40:80]); err != nil {
		t.Fatal(err)
	}
	c, values := eng.ctx, segs[80].Values
	c.begin(values, sim.Net3G)
	var warm [2]int
	rejected := 0
	for i, ph := range []*ctxPhase{&c.lossless, &c.lossy} {
		for arm, name := range ph.names {
			if !ph.have[arm] {
				continue
			}
			warm[i]++
			ratio := ph.pred.Predict(arm, c.feats).Ratio
			want := cost("encode", name, len(values)) + ratio*8*float64(len(values))/float64(sim.Net3G)
			if ph.lats[arm] != want {
				t.Errorf("%s: the gate reads %v s, want the cost model's encode plus the predicted uplink, %v s", name, ph.lats[arm], want)
			}
			if ph.feasible[arm] != (want <= c.deadline) {
				t.Errorf("%s: feasible = %v at %v s against a %v s deadline", name, ph.feasible[arm], want, c.deadline)
			}
			if !ph.feasible[arm] {
				rejected++
			}
		}
	}
	if warm[0] == 0 || warm[1] == 0 || rejected == 0 || rejected == warm[0]+warm[1] {
		t.Fatalf("%d lossless and %d lossy arms warm, %d of them rejected: want both phases warm, some arms rejected and some kept",
			warm[0], warm[1], rejected)
	}
	if st := eng.Stats(); st.DeadlineViolations != 0 {
		t.Fatalf("deadline violations = %d, want 0", st.DeadlineViolations)
	}
}
