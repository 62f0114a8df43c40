package bandit

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

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
	// Arms returns the number of arms.
	Arms() int
	// Reset restores the initial state.
	Reset()
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

// traceName resolves the event source label.
func (c Config) traceName() string {
	if c.Name == "" {
		return "bandit"
	}
	return c.Name
}

// emitSelect and emitUpdate record the two bandit event kinds. Callers
// hold the policy mutex, which serializes the events in decision order.
func emitSelect(c Config, arm int) {
	if c.Trace != nil {
		c.Trace.Record(obs.Event{Source: c.traceName(), Kind: "select", Arm: arm})
	}
}

func emitUpdate(c Config, arm int, reward, estimate float64) {
	if c.Trace != nil {
		c.Trace.Record(obs.Event{Source: c.traceName(), Kind: "update", Arm: arm, Reward: reward, Value: estimate})
	}
}

func (c Config) rng() *rand.Rand {
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewSource(seed))
}

// EpsilonGreedy plays the greedy arm with probability 1-ε and explores a
// uniformly random arm otherwise. With Optimism > 0 it becomes the
// optimistic ε-greedy variant used throughout the paper's evaluation.
type EpsilonGreedy struct {
	mu      sync.Mutex
	cfg     Config
	rng     *rand.Rand
	values  []float64
	counts  []int
	rewards []float64
	// cand and ties are selection scratch, guarded by mu.
	cand, ties []int
}

// NewEpsilonGreedy builds the policy for the given arm count.
func NewEpsilonGreedy(arms int, cfg Config) *EpsilonGreedy {
	if arms <= 0 {
		panic(fmt.Sprintf("bandit: invalid arm count %d", arms))
	}
	p := &EpsilonGreedy{cfg: cfg, rng: cfg.rng()}
	p.values = make([]float64, arms)
	p.counts = make([]int, arms)
	p.rewards = make([]float64, arms)
	p.init()
	return p
}

func (p *EpsilonGreedy) init() {
	for i := range p.values {
		p.values[i] = p.cfg.Optimism
		p.counts[i] = 0
		p.rewards[i] = 0
	}
}

// Arms implements Policy.
func (p *EpsilonGreedy) Arms() int { return len(p.values) }

// Select implements Policy.
func (p *EpsilonGreedy) Select(allowed []bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	candidates := allowedArmsInto(p.cand, len(p.values), allowed)
	p.cand = candidates
	if len(candidates) == 0 {
		return -1
	}
	var arm int
	if p.rng.Float64() < p.cfg.Epsilon {
		arm = candidates[p.rng.Intn(len(candidates))]
	} else {
		arm = argmaxIn(p.values, candidates, p.rng, &p.ties)
	}
	emitSelect(p.cfg, arm)
	return arm
}

// Update implements Policy.
func (p *EpsilonGreedy) Update(arm int, reward float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if arm < 0 || arm >= len(p.values) {
		return
	}
	p.counts[arm]++
	p.rewards[arm] += reward
	if p.cfg.Step > 0 {
		p.values[arm] += p.cfg.Step * (reward - p.values[arm])
	} else {
		p.values[arm] += (reward - p.values[arm]) / float64(p.counts[arm])
	}
	emitUpdate(p.cfg, arm, reward, p.values[arm])
}

// Estimates implements Policy.
func (p *EpsilonGreedy) Estimates() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]float64, len(p.values))
	copy(out, p.values)
	return out
}

// RewardsInto implements Policy.
func (p *EpsilonGreedy) RewardsInto(dst []float64) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fillInto(dst, p.rewards)
}

// Counts implements Policy.
func (p *EpsilonGreedy) Counts() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.counts))
	copy(out, p.counts)
	return out
}

// Reset implements Policy.
func (p *EpsilonGreedy) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = p.cfg.rng()
	p.init()
}

// UCB1 selects the arm maximizing value + c*sqrt(ln t / n_a), shifting from
// exploration of under-played arms to exploitation as evidence accumulates.
type UCB1 struct {
	mu      sync.Mutex
	cfg     Config
	rng     *rand.Rand
	values  []float64
	counts  []int
	rewards []float64
	total   int
	// cand is selection scratch, guarded by mu.
	cand []int
}

// NewUCB1 builds the policy for the given arm count.
func NewUCB1(arms int, cfg Config) *UCB1 {
	if arms <= 0 {
		panic(fmt.Sprintf("bandit: invalid arm count %d", arms))
	}
	if cfg.UCBC == 0 {
		cfg.UCBC = math.Sqrt2
	}
	p := &UCB1{cfg: cfg, rng: cfg.rng()}
	p.values = make([]float64, arms)
	p.counts = make([]int, arms)
	p.rewards = make([]float64, arms)
	return p
}

// Arms implements Policy.
func (p *UCB1) Arms() int { return len(p.values) }

// Select implements Policy.
func (p *UCB1) Select(allowed []bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	candidates := allowedArmsInto(p.cand, len(p.values), allowed)
	p.cand = candidates
	if len(candidates) == 0 {
		return -1
	}
	// Play each allowed arm once first.
	for _, a := range candidates {
		if p.counts[a] == 0 {
			emitSelect(p.cfg, a)
			return a
		}
	}
	best, bestScore := -1, math.Inf(-1)
	lt := math.Log(float64(p.total))
	for _, a := range candidates {
		score := p.values[a] + p.cfg.UCBC*math.Sqrt(lt/float64(p.counts[a]))
		if score > bestScore {
			best, bestScore = a, score
		}
	}
	emitSelect(p.cfg, best)
	return best
}

// Update implements Policy.
func (p *UCB1) Update(arm int, reward float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if arm < 0 || arm >= len(p.values) {
		return
	}
	p.counts[arm]++
	p.total++
	p.rewards[arm] += reward
	if p.cfg.Step > 0 {
		p.values[arm] += p.cfg.Step * (reward - p.values[arm])
	} else {
		p.values[arm] += (reward - p.values[arm]) / float64(p.counts[arm])
	}
	emitUpdate(p.cfg, arm, reward, p.values[arm])
}

// Estimates implements Policy.
func (p *UCB1) Estimates() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]float64, len(p.values))
	copy(out, p.values)
	return out
}

// RewardsInto implements Policy.
func (p *UCB1) RewardsInto(dst []float64) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fillInto(dst, p.rewards)
}

// Counts implements Policy.
func (p *UCB1) Counts() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.counts))
	copy(out, p.counts)
	return out
}

// Reset implements Policy.
func (p *UCB1) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = p.cfg.rng()
	for i := range p.values {
		p.values[i] = 0
		p.counts[i] = 0
		p.rewards[i] = 0
	}
	p.total = 0
}

// fillInto copies src into dst, growing dst only when its capacity is too
// small; callers that hand back the returned slice on the next call get
// steady-state zero-allocation copies.
func fillInto(dst, src []float64) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// allowedArmsInto expands the mask into a candidate index list appended
// to dst[:0]. Policies pass a scratch field guarded by their mutex, so
// the per-selection candidate list stops allocating; the returned slice
// must be handed back to that field.
func allowedArmsInto(dst []int, n int, allowed []bool) []int {
	if cap(dst) < n {
		dst = make([]int, 0, n)
	}
	out := dst[:0]
	for i := 0; i < n; i++ {
		if allowed == nil || (i < len(allowed) && allowed[i]) {
			out = append(out, i)
		}
	}
	return out
}

// argmaxIn returns the candidate with the highest value, breaking ties
// uniformly at random so early identical estimates don't bias toward low
// indices. scratch (a policy field, guarded by its mutex) backs the tie
// list so selection never allocates; the RNG draw sequence is unchanged.
func argmaxIn(values []float64, candidates []int, rng *rand.Rand, scratch *[]int) int {
	best := math.Inf(-1)
	ties := (*scratch)[:0]
	for _, a := range candidates {
		switch {
		case values[a] > best:
			best = values[a]
			ties = ties[:0]
			ties = append(ties, a)
		case values[a] == best:
			ties = append(ties, a)
		}
	}
	*scratch = ties
	if len(ties) == 1 {
		return ties[0]
	}
	return ties[rng.Intn(len(ties))]
}
