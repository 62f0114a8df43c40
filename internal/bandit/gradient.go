package bandit

import (
	"math"
	"math/rand"
	"sync"
)

// Gradient implements the gradient bandit algorithm (Sutton & Barto
// §2.8), which the paper lists among the MAB variations (§III-C). Instead
// of value estimates it learns per-arm preferences H(a) and samples from
// their softmax; preferences move by alpha·(R − baseline)·(1{a} − π(a)),
// with the running mean reward as baseline. Included as an extension so
// the selection layer can be swapped beyond ε-greedy/UCB.
type Gradient struct {
	mu      sync.Mutex
	cfg     Config
	rng     *rand.Rand
	prefs   []float64
	count   []int
	rewards []float64
	// alpha is the preference step size (cfg.Step, default 0.1).
	alpha    float64
	meanR    float64
	observed int
	// cand and probs are selection/update scratch, guarded by mu.
	cand  []int
	probs []float64
}

// NewGradient builds the policy for the given arm count.
func NewGradient(arms int, cfg Config) *Gradient {
	if arms <= 0 {
		panic("bandit: invalid arm count")
	}
	alpha := cfg.Step
	if alpha <= 0 {
		alpha = 0.1
	}
	return &Gradient{
		cfg:     cfg,
		rng:     cfg.rng(),
		prefs:   make([]float64, arms),
		count:   make([]int, arms),
		rewards: make([]float64, arms),
		alpha:   alpha,
	}
}

// Arms implements Policy.
func (p *Gradient) Arms() int { return len(p.prefs) }

// softmax returns the action distribution restricted to the candidates,
// backed by the policy's probs scratch (valid until the next call).
func (p *Gradient) softmax(candidates []int) []float64 {
	maxPref := math.Inf(-1)
	for _, a := range candidates {
		if p.prefs[a] > maxPref {
			maxPref = p.prefs[a]
		}
	}
	if cap(p.probs) < len(candidates) {
		p.probs = make([]float64, len(candidates))
	}
	probs := p.probs[:len(candidates)]
	var z float64
	for i, a := range candidates {
		probs[i] = math.Exp(p.prefs[a] - maxPref)
		z += probs[i]
	}
	for i := range probs {
		probs[i] /= z
	}
	return probs
}

// Select implements Policy: samples an arm from the softmax distribution.
func (p *Gradient) Select(allowed []bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	candidates := allowedArmsInto(p.cand, len(p.prefs), allowed)
	p.cand = candidates
	if len(candidates) == 0 {
		return -1
	}
	probs := p.softmax(candidates)
	u := p.rng.Float64()
	acc := 0.0
	arm := candidates[len(candidates)-1]
	for i, pr := range probs {
		acc += pr
		if u < acc {
			arm = candidates[i]
			break
		}
	}
	emitSelect(p.cfg, arm)
	return arm
}

// Update implements Policy.
func (p *Gradient) Update(arm int, reward float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if arm < 0 || arm >= len(p.prefs) {
		return
	}
	p.count[arm]++
	p.observed++
	p.rewards[arm] += reward
	p.meanR += (reward - p.meanR) / float64(p.observed)
	all := allowedArmsInto(p.cand, len(p.prefs), nil)
	p.cand = all
	probs := p.softmax(all)
	adv := reward - p.meanR
	for i, a := range all {
		if a == arm {
			p.prefs[a] += p.alpha * adv * (1 - probs[i])
		} else {
			p.prefs[a] -= p.alpha * adv * probs[i]
		}
	}
	emitUpdate(p.cfg, arm, reward, p.prefs[arm])
}

// Estimates implements Policy: the current preferences (not values, but
// the same "bigger is better" ordering).
func (p *Gradient) Estimates() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]float64, len(p.prefs))
	copy(out, p.prefs)
	return out
}

// RewardsInto implements Policy.
func (p *Gradient) RewardsInto(dst []float64) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fillInto(dst, p.rewards)
}

// Counts implements Policy.
func (p *Gradient) Counts() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.count))
	copy(out, p.count)
	return out
}

// Reset implements Policy.
func (p *Gradient) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = p.cfg.rng()
	for i := range p.prefs {
		p.prefs[i] = 0
		p.count[i] = 0
		p.rewards[i] = 0
	}
	p.meanR = 0
	p.observed = 0
}
