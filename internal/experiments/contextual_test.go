package experiments

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/quality"
)

// runPolicyRegret runs TestSeededQualityGolden's online_ratio cell (seed
// 11, ratio 0.15, oracle every 4th decision, 120 segments) under one policy.
func runPolicyRegret(t *testing.T, policy string, deadline time.Duration) (quality.Snapshot, core.OnlineStats) {
	return runOnlineCell(t, core.SingleTarget(core.TargetRatio), 0.15, policy, deadline)
}

// TestContextualRegretBeatsPlainPolicies is the PR's acceptance bar: on
// the seeded online_ratio cell, the contextual policy's cumulative regret at
// the horizon must be no worse than the best plain policy's. The warm
// start earns its keep by skipping the cold exploration the plain
// policies pay for.
func TestContextualRegretBeatsPlainPolicies(t *testing.T) {
	bestPlain := -1.0
	for _, pol := range []string{"egreedy", "ucb", "gradient"} {
		q, _ := runPolicyRegret(t, pol, 0)
		t.Logf("%-10s cumulative regret %.5f  optimal rate %.2f", pol, q.CumulativeRegret, q.OptimalRate)
		if bestPlain < 0 || q.CumulativeRegret < bestPlain {
			bestPlain = q.CumulativeRegret
		}
	}
	ctx, stats := runPolicyRegret(t, "contextual", 0)
	t.Logf("%-10s cumulative regret %.5f  optimal rate %.2f", "contextual", ctx.CumulativeRegret, ctx.OptimalRate)
	if ctx.CumulativeRegret > bestPlain {
		t.Fatalf("contextual cumulative regret %.5f exceeds the best plain policy's %.5f",
			ctx.CumulativeRegret, bestPlain)
	}
	if stats.DeadlineViolations != 0 {
		t.Fatalf("deadline violations = %d without a deadline configured", stats.DeadlineViolations)
	}
}

// TestContextualDeadlineCellInvariant mirrors TestSeededQualityGolden's
// online_ctx_deadline cell: with the 5µs gate the run must complete every
// segment, record zero violations, and still see fallbacks only when
// nothing feasible remains.
func TestContextualDeadlineCellInvariant(t *testing.T) {
	_, stats := runPolicyRegret(t, "contextual", 5*time.Microsecond)
	if stats.Segments != 120 {
		t.Fatalf("processed %d segments, want 120", stats.Segments)
	}
	if stats.DeadlineViolations != 0 {
		t.Fatalf("deadline violations = %d, want 0", stats.DeadlineViolations)
	}
	if stats.DeadlineRejects == 0 {
		t.Fatal("a 5µs deadline rejected no arms — the gate never engaged")
	}
}
