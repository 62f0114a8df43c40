package bandit

import (
	"math"
	"math/rand"
	"testing"
)

func TestGradientFindsBestArm(t *testing.T) {
	probs := []float64{0.2, 0.8, 0.4}
	p := NewGradient(len(probs), Config{Step: 0.2, Seed: 11})
	pulls := playBernoulli(t, p, probs, 3000, 19)
	if best := argmaxInt(pulls); best != 1 {
		t.Fatalf("most-pulled arm = %d (pulls %v), want 1", best, pulls)
	}
	if float64(pulls[1]) < 0.5*3000 {
		t.Fatalf("best arm pulled only %d/3000", pulls[1])
	}
}

func TestGradientPreferencesOrdering(t *testing.T) {
	p := NewGradient(2, Config{Step: 0.3, Seed: 12})
	for i := 0; i < 500; i++ {
		arm := p.Select(nil)
		reward := 0.0
		if arm == 0 {
			reward = 1.0
		}
		p.Update(arm, reward)
	}
	est := p.Estimates()
	if est[0] <= est[1] {
		t.Fatalf("preferences %v should favour arm 0", est)
	}
}

func TestGradientAllowedMask(t *testing.T) {
	p := NewGradient(4, Config{Seed: 13})
	mask := []bool{false, true, true, false}
	for i := 0; i < 200; i++ {
		arm := p.Select(mask)
		if arm != 1 && arm != 2 {
			t.Fatalf("selected masked arm %d", arm)
		}
		p.Update(arm, rand.Float64())
	}
	if got := p.Select([]bool{false, false, false, false}); got != -1 {
		t.Fatalf("empty mask returned %d", got)
	}
}

func TestGradientBaselineTracksMeanReward(t *testing.T) {
	p := NewGradient(1, Config{Seed: 14})
	for i := 0; i < 100; i++ {
		p.Update(0, 0.25)
	}
	if math.Abs(p.meanR-0.25) > 1e-12 {
		t.Fatalf("baseline = %v, want 0.25", p.meanR)
	}
}

func TestGradientInvalidUpdateIgnored(t *testing.T) {
	p := NewGradient(2, Config{Seed: 16})
	p.Update(-1, 1)
	p.Update(5, 1)
	for _, c := range p.Counts() {
		if c != 0 {
			t.Fatal("invalid update counted")
		}
	}
}

func TestGradientPanicsOnBadArms(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGradient(0, Config{})
}

func TestGradientAsPoolFactory(t *testing.T) {
	pool := NewPool(3, Config{Step: 0.2}, nil, func(arms int, cfg Config) Policy {
		return NewGradient(arms, cfg)
	})
	if _, ok := pool.For(0.4).(*Gradient); !ok {
		t.Fatal("factory ignored")
	}
}
