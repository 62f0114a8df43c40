package contextual

// These tests drive bandit.Contextual, the policy that consumes this
// package's predictions as per-segment priors.

import (
	"reflect"
	"testing"

	"repro/internal/bandit"
	"repro/internal/obs"
)

func TestPolicyPriorsSteerColdSelection(t *testing.T) {
	p := bandit.NewContextual(4, bandit.Config{Seed: 3})
	p.SetPriors([]float64{0.1, 0.9, 0.2, 0.3})
	// No plays yet: the blended score is exactly the prior, so arm 1
	// wins the cold greedy selection (Epsilon 0 removes the explore
	// branch).
	if arm := p.Select(nil); arm != 1 {
		t.Fatalf("cold selection picked arm %d, want the prior-best arm 1", arm)
	}
	// Sustained zero reward on arm 1 must overcome its prior: with 20
	// plays its blend is 4·0.9/24 = 0.15, below arm 3's untouched 0.3.
	for i := 0; i < 20; i++ {
		p.Update(1, 0.0)
	}
	if arm := p.Select(nil); arm != 3 {
		t.Fatalf("post-evidence selection picked arm %d, want 3 — empirical evidence never overcame the prior", arm)
	}
}

func TestPolicyWithoutPriorsUsesOptimism(t *testing.T) {
	p := bandit.NewContextual(3, bandit.Config{Optimism: 1, Seed: 5})
	seen := map[int]bool{}
	// With a uniform optimistic prior every arm ties at 1; reward 0
	// pushes a played arm's blend below the others, so the first three
	// greedy picks must cover all arms — the usual optimistic sweep.
	for i := 0; i < 3; i++ {
		arm := p.Select(nil)
		seen[arm] = true
		p.Update(arm, 0)
	}
	if len(seen) != 3 {
		t.Fatalf("optimistic sweep covered %d arms, want 3", len(seen))
	}
}

func TestPolicyRespectsAllowedMask(t *testing.T) {
	p := bandit.NewContextual(4, bandit.Config{Epsilon: 0.5, Seed: 9})
	p.SetPriors([]float64{0.9, 0.8, 0.7, 0.6})
	allowed := []bool{false, true, false, true}
	for i := 0; i < 50; i++ {
		arm := p.Select(allowed)
		if arm != 1 && arm != 3 {
			t.Fatalf("selected masked arm %d", arm)
		}
		p.Update(arm, 0.5)
	}
	if arm := p.Select([]bool{false, false, false, false}); arm != -1 {
		t.Fatalf("empty mask selected %d, want -1", arm)
	}
}

func TestPolicyDeterministicSequence(t *testing.T) {
	run := func() []int {
		p := bandit.NewContextual(5, bandit.Config{Epsilon: 0.2, Optimism: 1, Seed: 17})
		var picks []int
		for i := 0; i < 40; i++ {
			p.SetPriors([]float64{0.2, 0.4, 0.6, 0.8, 0.5})
			arm := p.Select(nil)
			picks = append(picks, arm)
			p.Update(arm, float64(arm)/10)
		}
		return picks
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different selection sequences:\n%v\n%v", a, b)
	}
}

func TestPolicyAccessors(t *testing.T) {
	p := bandit.NewContextual(2, bandit.Config{Seed: 2})
	p.Update(0, 0.5)
	p.Update(0, 0.7)
	p.Update(1, 0.2)
	est := p.Estimates()
	if len(est) != 2 || est[0] != 0.6 {
		t.Fatalf("estimates = %v, want sample averages with est[0]=0.6", est)
	}
	rew := p.RewardsInto(nil)
	if rew[0] != 1.2 || rew[1] != 0.2 {
		t.Fatalf("rewards = %v", rew)
	}
	if c := p.Counts(); c[0] != 2 || c[1] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestPolicyEmitsTraceEvents(t *testing.T) {
	ring := obs.NewRing(16)
	p := bandit.NewContextual(2, bandit.Config{Seed: 4, Trace: ring, Name: "bandit.test.ctx"})
	arm := p.Select(nil)
	p.Update(arm, 0.5)
	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want select+update", len(evs))
	}
	if evs[0].Source != "bandit.test.ctx" || evs[0].Kind != "select" || evs[0].Arm != arm {
		t.Fatalf("select event = %+v", evs[0])
	}
	if evs[1].Kind != "update" || evs[1].Reward != 0.5 {
		t.Fatalf("update event = %+v", evs[1])
	}
}
