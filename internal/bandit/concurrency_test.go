package bandit

import (
	"sync"
	"testing"
)

// Concurrent-safety tests for every Policy implementation and for Pool.
// The engines' contract (see core DESIGN.md §7) is that all decisions run
// on one goroutine while monitors read Estimates/Counts concurrently — but
// the policies themselves promise full goroutine-safety, which the
// transport server's per-connection sinks and these tests rely on.

const (
	concGoroutines = 8
	concRounds     = 500
)

// policyTable is the five policy configurations every table test runs:
// the concurrency tests below, TestUpdateIgnoresInvalidArm,
// TestAllocsPolicyCycle and TestPolicySequenceGolden, whose literals
// assume these exact configs.
func policyTable() []struct {
	name string
	make func(arms int) Policy
} {
	return []struct {
		name string
		make func(arms int) Policy
	}{
		{"epsilon-greedy", func(arms int) Policy {
			return NewEpsilonGreedy(arms, Config{Epsilon: 0.1, Seed: 1})
		}},
		{"epsilon-greedy-optimistic", func(arms int) Policy {
			return NewEpsilonGreedy(arms, Config{Epsilon: 0.1, Optimism: 5, Step: 0.5, Seed: 2})
		}},
		{"ucb1", func(arms int) Policy {
			return NewUCB1(arms, Config{UCBC: 1.414, Seed: 3})
		}},
		{"gradient", func(arms int) Policy {
			return NewGradient(arms, Config{Step: 0.1, Seed: 4})
		}},
		{"contextual", func(arms int) Policy {
			return NewContextual(arms, Config{Epsilon: 0.1, Optimism: 1, Seed: 5})
		}},
	}
}

// TestPolicyConcurrentSafety drives each policy from 8 goroutines doing
// Select/Update while readers poll Estimates and Counts, then checks the
// play counts add up exactly: no update may be lost or double-applied.
func TestPolicyConcurrentSafety(t *testing.T) {
	const arms = 5
	allowed := make([]bool, arms)
	for i := range allowed {
		allowed[i] = true
	}
	for _, tc := range policyTable() {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.make(arms)
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for i := 0; i < 2; i++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						est := p.Estimates()
						if len(est) != arms {
							t.Errorf("Estimates len = %d, want %d", len(est), arms)
							return
						}
						_ = p.Counts()
					}
				}()
			}
			var writers sync.WaitGroup
			for g := 0; g < concGoroutines; g++ {
				writers.Add(1)
				go func(g int) {
					defer writers.Done()
					for i := 0; i < concRounds; i++ {
						arm := p.Select(allowed)
						if arm < 0 || arm >= arms {
							t.Errorf("Select returned out-of-range arm %d", arm)
							return
						}
						p.Update(arm, float64(g%3)*0.4)
					}
				}(g)
			}
			writers.Wait()
			close(stop)
			readers.Wait()

			total := 0
			for _, n := range p.Counts() {
				total += n
			}
			if want := concGoroutines * concRounds; total != want {
				t.Fatalf("count sum = %d, want %d (lost or duplicated updates)", total, want)
			}
		})
	}
}

// TestPolicyConcurrentRestrictedArms exercises the allowed-mask path (the
// offline engine's feasibility filter) concurrently: selections must stay
// inside the mask even under contention.
func TestPolicyConcurrentRestrictedArms(t *testing.T) {
	const arms = 6
	allowed := []bool{false, true, false, true, true, false}
	for _, tc := range policyTable() {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.make(arms)
			var wg sync.WaitGroup
			for g := 0; g < concGoroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < concRounds; i++ {
						arm := p.Select(allowed)
						if arm < 0 || !allowed[arm] {
							t.Errorf("Select returned disallowed arm %d", arm)
							return
						}
						p.Update(arm, 0.5)
					}
				}()
			}
			wg.Wait()
			counts := p.Counts()
			for arm, n := range counts {
				if !allowed[arm] && n != 0 {
					t.Fatalf("disallowed arm %d has %d plays", arm, n)
				}
			}
			total := 0
			for _, n := range counts {
				total += n
			}
			if want := concGoroutines * concRounds; total != want {
				t.Fatalf("count sum = %d, want %d", total, want)
			}
		})
	}
}

// TestPoolConcurrentFor hammers Pool.For from 8 goroutines across ratios
// spanning every bucket, playing the returned policies concurrently. For
// must be idempotent per bucket (no duplicate materialization) and the
// aggregate play counts must balance.
func TestPoolConcurrentFor(t *testing.T) {
	const arms = 4
	bounds := []float64{0.8, 0.5, 0.2} // descending, per Pool's contract
	pool := NewPool(arms, Config{Epsilon: 0.1, Seed: 9}, bounds, func(n int, cfg Config) Policy {
		return NewEpsilonGreedy(n, cfg)
	})
	allowed := make([]bool, arms)
	for i := range allowed {
		allowed[i] = true
	}
	ratios := []float64{0.1, 0.3, 0.6, 0.9}
	var wg sync.WaitGroup
	for g := 0; g < concGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < concRounds; i++ {
				p := pool.For(ratios[(g+i)%len(ratios)])
				arm := p.Select(allowed)
				if arm < 0 {
					t.Error("Select returned -1 with all arms allowed")
					return
				}
				p.Update(arm, 0.3)
			}
		}(g)
	}
	wg.Wait()

	if got, max := instances(pool), len(pool.bounds)+1; got > max {
		t.Fatalf("%d instances exceed %d buckets: duplicate materialization", got, max)
	}
	total := 0
	seen := make(map[Policy]bool)
	for _, ratio := range ratios {
		p := pool.For(ratio)
		if seen[p] {
			t.Fatalf("ratios %v do not map to distinct buckets", ratios)
		}
		seen[p] = true
		for _, n := range p.Counts() {
			total += n
		}
	}
	if want := concGoroutines * concRounds; total != want {
		t.Fatalf("pooled count sum = %d, want %d", total, want)
	}
}

// TestPoolForStableIdentity checks concurrent For calls for the same ratio
// always return the same policy instance.
func TestPoolForStableIdentity(t *testing.T) {
	pool := NewPool(3, Config{Seed: 11}, []float64{0.5}, func(n int, cfg Config) Policy {
		return NewUCB1(n, cfg)
	})
	var wg sync.WaitGroup
	got := make([]Policy, concGoroutines)
	for g := 0; g < concGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = pool.For(0.25)
		}(g)
	}
	wg.Wait()
	for g := 1; g < concGoroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d received a different policy instance for the same ratio", g)
		}
	}
}
