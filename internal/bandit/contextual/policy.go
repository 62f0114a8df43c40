package contextual

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/bandit"
	"repro/internal/obs"
)

// warmWeight is how many pseudo-plays one per-segment prediction is
// worth when blended with an arm's empirical estimate. Small counts let
// the prior steer early selection (the warm start); as real plays
// accumulate the empirical mean dominates and the policy degrades
// gracefully to plain greedy selection even when the predictor is wrong
// (DESIGN.md §11).
const warmWeight = 4.0

// Policy is the contextual bandit policy: ε-greedy over a per-segment
// blend of empirical arm values and externally supplied reward priors
// (typically Predictor outputs for the current segment's features).
// Without priors it behaves like the optimistic ε-greedy baseline, so
// it is safe anywhere a bandit.Policy is expected — including the
// offline pool, which never sets priors.
//
// Exploration is directed: the ε branch plays the least-played allowed
// arm instead of a uniform pick, because the prior already covers the
// "which arm looks good" question and the residual uncertainty is in
// the arms with the least evidence.
type Policy struct {
	mu  sync.Mutex
	cfg bandit.Config
	rng *rand.Rand

	values  []float64 // empirical per-arm estimates (sample average or Step)
	rewards []float64
	counts  []int
	priors  []float64 // per-segment predicted rewards; reset to Optimism

	// selection scratch, guarded by mu
	score      []float64
	cand, ties []int
}

var _ bandit.Policy = (*Policy)(nil)

// New builds the policy for the given arm count.
func New(arms int, cfg bandit.Config) *Policy {
	if arms <= 0 {
		panic(fmt.Sprintf("contextual: invalid arm count %d", arms))
	}
	p := &Policy{cfg: cfg, rng: newRNG(cfg)}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.values = make([]float64, arms)
	p.rewards = make([]float64, arms)
	p.counts = make([]int, arms)
	p.priors = make([]float64, arms)
	p.score = make([]float64, arms)
	p.init()
	return p
}

func (p *Policy) init() {
	for i := range p.values {
		p.values[i] = 0
		p.rewards[i] = 0
		p.counts[i] = 0
		p.priors[i] = p.cfg.Optimism
	}
}

// SetPriors installs this segment's predicted per-arm rewards. The
// engine calls it on the decision goroutine immediately before Select;
// the slice is copied, so callers may reuse their scratch. Arms beyond
// len(priors) keep their previous prior. Cold arms (no prediction yet)
// should be passed the Optimism value so they still get their forced
// early exploration.
//
// adaedge:decision-goroutine
func (p *Policy) SetPriors(priors []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(priors)
	if n > len(p.priors) {
		n = len(p.priors)
	}
	copy(p.priors[:n], priors[:n])
}

// Arms implements bandit.Policy.
func (p *Policy) Arms() int { return len(p.values) }

// Select implements bandit.Policy: argmax over the prior-blended score
// (counts·value + warmWeight·prior)/(counts + warmWeight), with an
// ε-probability directed-exploration branch playing the least-played
// allowed arm. Ties break uniformly at random from the policy RNG, so
// seeded runs reproduce exactly.
//
// adaedge:decision-goroutine
func (p *Policy) Select(allowed []bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cand = allowedArmsInto(p.cand, len(p.values), allowed)
	if len(p.cand) == 0 {
		return -1
	}
	var arm int
	if p.rng.Float64() < p.cfg.Epsilon {
		arm = p.leastPlayed()
	} else {
		for _, a := range p.cand {
			c := float64(p.counts[a])
			p.score[a] = (c*p.values[a] + warmWeight*p.priors[a]) / (c + warmWeight)
		}
		arm = argmaxIn(p.score, p.cand, p.rng, &p.ties)
	}
	p.emitSelect(arm)
	return arm
}

// leastPlayed returns the candidate with the fewest plays, ties broken
// at random. Caller holds mu.
func (p *Policy) leastPlayed() int {
	minCount := math.MaxInt
	ties := p.ties[:0]
	for _, a := range p.cand {
		switch {
		case p.counts[a] < minCount:
			minCount = p.counts[a]
			ties = ties[:0]
			ties = append(ties, a)
		case p.counts[a] == minCount:
			ties = append(ties, a)
		}
	}
	p.ties = ties
	if len(ties) == 1 {
		return ties[0]
	}
	return ties[p.rng.Intn(len(ties))]
}

// Update implements bandit.Policy.
//
// adaedge:decision-goroutine
func (p *Policy) Update(arm int, reward float64) {
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
	p.emitUpdate(arm, reward, p.values[arm])
}

// Estimates implements bandit.Policy. The estimates are the empirical
// values only — priors are a per-segment quantity and never leak into
// the cross-segment estimate accessors the oracle layer reads.
func (p *Policy) Estimates() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]float64, len(p.values))
	copy(out, p.values)
	return out
}

// RewardsInto implements bandit.Policy.
func (p *Policy) RewardsInto(dst []float64) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fillInto(dst, p.rewards)
}

// Counts implements bandit.Policy.
func (p *Policy) Counts() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.counts))
	copy(out, p.counts)
	return out
}

// Reset implements bandit.Policy.
func (p *Policy) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = newRNG(p.cfg)
	p.init()
}

// newRNG mirrors bandit.Config's seeding rule (seed 0 selects a fixed
// default) without reaching into the bandit package's unexported helper.
func newRNG(cfg bandit.Config) *rand.Rand {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewSource(seed))
}

// emitSelect and emitUpdate mirror the bandit package's trace events so
// a contextual policy is indistinguishable in the decision trace from
// the plain policies it replaces. Caller holds mu, which serializes the
// events in decision order.
func (p *Policy) emitSelect(arm int) {
	if p.cfg.Trace == nil {
		return
	}
	p.cfg.Trace.Record(obs.Event{Source: p.traceName(), Kind: "select", Arm: arm})
}

func (p *Policy) emitUpdate(arm int, reward, estimate float64) {
	if p.cfg.Trace == nil {
		return
	}
	p.cfg.Trace.Record(obs.Event{Source: p.traceName(), Kind: "update", Arm: arm, Reward: reward, Value: estimate})
}

func (p *Policy) traceName() string {
	if p.cfg.Name == "" {
		return "bandit"
	}
	return p.cfg.Name
}

// fillInto, allowedArmsInto and argmaxIn reimplement the bandit
// package's unexported scratch helpers under the same contracts
// (bandit.go documents them); exporting them for one consumer would
// widen that package's API for no caller benefit.

func fillInto(dst, src []float64) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

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
