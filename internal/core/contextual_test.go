package core

import (
	"testing"
	"time"

	"repro/internal/obs/quality"
	"repro/internal/query"
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
