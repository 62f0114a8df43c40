package bandit

import (
	"math"

	"repro/internal/obs"
)

// Policy is a bandit algorithm over a fixed set of arms.
type Policy interface {
	// Select returns the next arm to play. allowed restricts the choice to
	// arms i with allowed[i] == true; a nil mask permits every arm.
	// Select returns -1 if no arm is allowed. Select consumes the policy's
	// RNG stream and must stay on the decision goroutine (DESIGN.md §7).
	Select(allowed []bool) int
	// Update feeds back the observed reward for an arm. Decision
	// goroutine only, in decision order.
	Update(arm int, reward float64)
	// Estimates returns a copy of the current per-arm value estimates.
	Estimates() []float64
	// RewardsInto copies the per-arm cumulative observed rewards into dst,
	// reusing its backing array when it is large enough, and returns the
	// filled slice. Unlike Estimates, which may be a decayed or
	// preference-based quantity, rewards are the raw sums fed to Update —
	// the attribution ledger.
	RewardsInto(dst []float64) []float64
	// Counts returns a copy of the per-arm play counts.
	Counts() []int
}

// Config parameterizes the bandit policies.
type Config struct {
	// Epsilon is the exploration probability for the ε-greedy policies.
	// The paper uses 0.01 online and 0.1 offline.
	Epsilon float64
	// Optimism is the optimistic initial value estimate. Zero yields the
	// plain ε-greedy policy; a high value pushes the policy to try every
	// arm early (paper §III-C, "Optimistic ε-Greedy").
	Optimism float64
	// Step is the constant step size for nonstationary value updates.
	// Zero selects sample-average updates. The paper defaults to 0.5 for
	// data-shift cases (Fig 15).
	Step float64
	// UCBC is the exploration coefficient for UCB1 (usually sqrt(2)).
	UCBC float64
	// Seed makes exploration deterministic; 0 selects a fixed default.
	Seed int64
	// Trace records every Select and Update as a decision-trace event
	// (obs package). Events are emitted under the policy mutex, in
	// decision order, and carry no wall-clock fields, so a seeded run
	// reproduces the same sequence. Nil disables tracing at zero cost.
	Trace *obs.Ring
	// Name labels this policy's trace events (Event.Source), e.g.
	// "bandit.online.lossy". Empty selects "bandit".
	Name string
}

// EpsilonGreedy plays the greedy arm with probability 1-ε and explores a
// uniformly random arm otherwise. With Optimism > 0 it becomes the
// optimistic ε-greedy variant used throughout the paper's evaluation.
type EpsilonGreedy struct{ ledger }

// NewEpsilonGreedy builds the policy for the given arm count. Every
// estimate starts at Config.Optimism.
func NewEpsilonGreedy(arms int, cfg Config) *EpsilonGreedy {
	p := &EpsilonGreedy{}
	p.init(arms, cfg, cfg.Optimism)
	return p
}

// Select implements Policy.
func (p *EpsilonGreedy) Select(allowed []bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	cand := p.candidates(allowed)
	if len(cand) == 0 {
		return -1
	}
	if p.rng.Float64() < p.cfg.Epsilon {
		return p.selected(cand[p.rng.Intn(len(cand))])
	}
	return p.selected(p.argmax(p.values))
}

// UCB1 selects the arm maximizing value + c*sqrt(ln t / n_a), shifting from
// exploration of under-played arms to exploitation as evidence accumulates.
type UCB1 struct{ ledger }

// NewUCB1 builds the policy for the given arm count.
func NewUCB1(arms int, cfg Config) *UCB1 {
	if cfg.UCBC == 0 {
		cfg.UCBC = math.Sqrt2
	}
	p := &UCB1{}
	p.init(arms, cfg, 0)
	return p
}

// Select implements Policy.
func (p *UCB1) Select(allowed []bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	cand := p.candidates(allowed)
	if len(cand) == 0 {
		return -1
	}
	// Play each allowed arm once first.
	for _, a := range cand {
		if p.counts[a] == 0 {
			return p.selected(a)
		}
	}
	best, bestScore := -1, math.Inf(-1)
	lt := math.Log(float64(p.total))
	for _, a := range cand {
		score := p.values[a] + p.cfg.UCBC*math.Sqrt(lt/float64(p.counts[a]))
		if score > bestScore {
			best, bestScore = a, score
		}
	}
	return p.selected(best)
}
