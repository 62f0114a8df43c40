package bandit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bernoulliBandit simulates arms with fixed success probabilities.
func playBernoulli(t *testing.T, p Policy, probs []float64, steps int, seed int64) (pulls []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pulls = make([]int, len(probs))
	for i := 0; i < steps; i++ {
		arm := p.Select(nil)
		if arm < 0 || arm >= len(probs) {
			t.Fatalf("step %d: invalid arm %d", i, arm)
		}
		pulls[arm]++
		reward := 0.0
		if rng.Float64() < probs[arm] {
			reward = 1.0
		}
		p.Update(arm, reward)
	}
	return pulls
}

func TestEpsilonGreedyFindsBestArm(t *testing.T) {
	probs := []float64{0.1, 0.3, 0.9, 0.2}
	p := NewEpsilonGreedy(len(probs), Config{Epsilon: 0.1, Optimism: 1, Seed: 7})
	pulls := playBernoulli(t, p, probs, 3000, 11)
	if best := argmaxInt(pulls); best != 2 {
		t.Fatalf("most-pulled arm = %d (pulls %v), want 2", best, pulls)
	}
	if float64(pulls[2]) < 0.6*3000 {
		t.Fatalf("best arm pulled only %d/3000 times", pulls[2])
	}
}

func TestUCB1FindsBestArm(t *testing.T) {
	probs := []float64{0.2, 0.5, 0.85}
	p := NewUCB1(len(probs), Config{Seed: 3})
	pulls := playBernoulli(t, p, probs, 3000, 13)
	if best := argmaxInt(pulls); best != 2 {
		t.Fatalf("most-pulled arm = %d (pulls %v), want 2", best, pulls)
	}
}

func TestOptimismForcesEarlyExploration(t *testing.T) {
	// With high optimism and ε=0, every arm must be tried at least once
	// before convergence.
	p := NewEpsilonGreedy(5, Config{Epsilon: 0, Optimism: 10, Seed: 1})
	seen := make(map[int]bool)
	for i := 0; i < 5; i++ {
		arm := p.Select(nil)
		seen[arm] = true
		p.Update(arm, 0.5) // below the optimistic estimate
	}
	if len(seen) != 5 {
		t.Fatalf("optimistic policy explored %d/5 arms in first 5 pulls", len(seen))
	}
}

func TestGreedyWithoutOptimismCanLockIn(t *testing.T) {
	// Sanity check of the contrast: pure greedy (ε=0, no optimism) locks
	// onto the first rewarding arm.
	p := NewEpsilonGreedy(3, Config{Epsilon: 0, Optimism: 0, Seed: 2})
	first := p.Select(nil)
	p.Update(first, 1.0)
	for i := 0; i < 50; i++ {
		arm := p.Select(nil)
		if arm != first {
			t.Fatalf("pure greedy switched from %d to %d", first, arm)
		}
		p.Update(arm, 1.0)
	}
}

func TestNonstationaryStepTracksShift(t *testing.T) {
	// Arm 0 is best for the first phase, then arm 1 becomes best. A
	// constant-step policy must switch; this mirrors the paper's Fig 15.
	probs := [][]float64{{0.9, 0.1}, {0.1, 0.9}}
	p := NewEpsilonGreedy(2, Config{Epsilon: 0.1, Step: 0.5, Optimism: 1, Seed: 5})
	rng := rand.New(rand.NewSource(17))
	var latePulls [2]int
	for phase := 0; phase < 2; phase++ {
		for i := 0; i < 1000; i++ {
			arm := p.Select(nil)
			reward := 0.0
			if rng.Float64() < probs[phase][arm] {
				reward = 1.0
			}
			p.Update(arm, reward)
			if phase == 1 && i >= 500 {
				latePulls[arm]++
			}
		}
	}
	if latePulls[1] < latePulls[0] {
		t.Fatalf("constant-step policy failed to track the shift: %v", latePulls)
	}
}

func TestSampleAverageSlowerToShiftThanConstantStep(t *testing.T) {
	// Ablation backing DESIGN.md decision 3: after a distribution shift,
	// the constant-step policy's estimate of the formerly-good arm decays
	// faster than the sample-average policy's.
	avg := NewEpsilonGreedy(1, Config{Seed: 1})
	step := NewEpsilonGreedy(1, Config{Step: 0.5, Seed: 1})
	for i := 0; i < 500; i++ { // long high-reward history
		avg.Update(0, 1)
		step.Update(0, 1)
	}
	for i := 0; i < 10; i++ { // shift to zero reward
		avg.Update(0, 0)
		step.Update(0, 0)
	}
	if avgEst, stepEst := avg.Estimates()[0], step.Estimates()[0]; stepEst >= avgEst {
		t.Fatalf("constant step (%.3f) should decay faster than sample average (%.3f)", stepEst, avgEst)
	}
}

func TestAllowedMask(t *testing.T) {
	p := NewEpsilonGreedy(4, Config{Epsilon: 0.5, Seed: 9})
	mask := []bool{false, true, false, true}
	for i := 0; i < 100; i++ {
		arm := p.Select(mask)
		if arm != 1 && arm != 3 {
			t.Fatalf("selected disallowed arm %d", arm)
		}
		p.Update(arm, float64(arm))
	}
	if got := p.Select([]bool{false, false, false, false}); got != -1 {
		t.Fatalf("empty mask should return -1, got %d", got)
	}
}

func TestUCBAllowedMask(t *testing.T) {
	p := NewUCB1(3, Config{Seed: 9})
	mask := []bool{true, false, true}
	for i := 0; i < 50; i++ {
		arm := p.Select(mask)
		if arm == 1 {
			t.Fatal("UCB selected masked arm")
		}
		p.Update(arm, 1)
	}
	if got := p.Select([]bool{false, false, false}); got != -1 {
		t.Fatalf("want -1, got %d", got)
	}
}

func TestUpdateIgnoresInvalidArm(t *testing.T) {
	for _, tc := range policyTable() {
		p := tc.make(2)
		before := p.Estimates()
		p.Update(-1, 5)
		p.Update(99, 5)
		for _, c := range p.Counts() {
			if c != 0 {
				t.Fatalf("%s: invalid update mutated counts", tc.name)
			}
		}
		if got := p.Estimates(); got[0] != before[0] || got[1] != before[1] {
			t.Fatalf("%s: invalid update moved estimates %v -> %v", tc.name, before, got)
		}
	}
}

// TestAllocsPolicyCycle pins every policy's steady-state Select+Update
// (and a contextual policy's SetPriors) at zero allocations: the
// decision goroutine runs one cycle per segment.
func TestAllocsPolicyCycle(t *testing.T) {
	priors := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	allowed := []bool{true, true, false, true, true, true}
	for _, tc := range policyTable() {
		p := tc.make(6)
		cycle := func() {
			if cp, ok := p.(*Contextual); ok {
				cp.SetPriors(priors)
			}
			p.Update(p.Select(allowed), 0.5)
		}
		cycle()
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("%s: Select+Update allocate %v times per cycle", tc.name, allocs)
		}
	}
}

// TestAllocsPolicyInit pins what building a policy allocates: the policy,
// its seeded RNG (two objects), and the ledger's per-arm arrays in one
// float64 block and one int block, plus the arrays a policy keeps of its
// own (Gradient's probabilities, Contextual's priors and scores). An
// offline engine builds a policy per ratio range; one allocation per
// ledger array made that five, not two.
func TestAllocsPolicyInit(t *testing.T) {
	own := map[string]float64{"gradient": 1, "contextual": 2}
	for _, tc := range policyTable() {
		want := 5 + own[tc.name]
		if got := testing.AllocsPerRun(20, func() { tc.make(6) }); got != want {
			t.Errorf("%s: building the policy allocates %v times, want %v", tc.name, got, want)
		}
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func() []int {
		p := NewEpsilonGreedy(4, Config{Epsilon: 0.3, Seed: 99})
		var arms []int
		for i := 0; i < 50; i++ {
			a := p.Select(nil)
			arms = append(arms, a)
			p.Update(a, float64(a%2))
		}
		return arms
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// instances returns the number of policies a pool has materialized.
func instances(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pols)
}

func TestPoolBucketing(t *testing.T) {
	pool := NewPool(3, Config{Seed: 1}, nil, nil)
	if n := len(pool.bounds) + 1; n != 5 {
		t.Fatalf("default pool buckets = %d, want 5", n)
	}
	hi := pool.For(0.9)
	hi2 := pool.For(0.7)
	if hi != hi2 {
		t.Fatal("ratios in the same range must share an instance")
	}
	lo := pool.For(0.05)
	if lo == hi {
		t.Fatal("ratios in different ranges must get distinct instances")
	}
	if n := instances(pool); n != 2 {
		t.Fatalf("instances = %d, want 2", n)
	}
}

func TestPoolBoundaryRatios(t *testing.T) {
	pool := NewPool(2, Config{}, []float64{0.5, 0.25}, nil)
	// ratio exactly at a boundary belongs to the lower range bucket.
	if pool.For(0.5) != pool.For(0.3) {
		t.Fatal("0.5 and 0.3 should share the (0.25,0.5] bucket")
	}
	if pool.For(0.51) == pool.For(0.5) {
		t.Fatal("0.51 and 0.5 should be in different buckets")
	}
	if pool.For(0.25) != pool.For(0.01) {
		t.Fatal("0.25 and 0.01 should share the bottom bucket")
	}
}

func TestPoolCustomFactory(t *testing.T) {
	pool := NewPool(2, Config{}, nil, func(arms int, cfg Config) Policy { return NewUCB1(arms, cfg) })
	if _, ok := pool.For(0.5).(*UCB1); !ok {
		t.Fatal("factory not honored")
	}
}

func TestQuickEstimatesStayInRewardRange(t *testing.T) {
	// Property: with sample-average updates and rewards in [0,1], the
	// estimates remain within [0, max(1, optimism)].
	f := func(rewards []float64, eps uint8) bool {
		p := NewEpsilonGreedy(3, Config{Epsilon: float64(eps%100) / 100, Seed: 3})
		for _, r := range rewards {
			r = math.Abs(math.Mod(r, 1))
			arm := p.Select(nil)
			p.Update(arm, r)
		}
		for _, v := range p.Estimates() {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadArmCount(t *testing.T) {
	for _, mk := range []func(){
		func() { NewEpsilonGreedy(0, Config{}) },
		func() { NewUCB1(-1, Config{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			mk()
		}()
	}
}

func argmaxInt(xs []int) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
