package bandit

import "math"

// Gradient implements the gradient bandit algorithm (Sutton & Barto
// §2.8), which the paper lists among the MAB variations (§III-C). Instead
// of value estimates it learns per-arm preferences H(a) and samples from
// their softmax; preferences move by alpha·(R − baseline)·(1{a} − π(a)),
// with the running mean reward as baseline. Included as an extension so
// the selection layer can be swapped beyond ε-greedy/UCB.
type Gradient struct {
	ledger // values holds the preferences H(a)
	// alpha is the preference step size (cfg.Step, default 0.1).
	alpha float64
	// meanR is the baseline: the mean of every valid reward so far.
	meanR float64
	// probs is softmax scratch, guarded by mu.
	probs []float64
}

// NewGradient builds the policy for the given arm count.
func NewGradient(arms int, cfg Config) *Gradient {
	alpha := cfg.Step
	if alpha <= 0 {
		alpha = 0.1
	}
	p := &Gradient{alpha: alpha}
	p.init(arms, cfg, 0)
	p.probs = make([]float64, arms)
	return p
}

// softmax returns the action distribution restricted to the candidates,
// backed by the policy's probs scratch (valid until the next call).
func (p *Gradient) softmax(candidates []int) []float64 {
	maxPref := math.Inf(-1)
	for _, a := range candidates {
		if p.values[a] > maxPref {
			maxPref = p.values[a]
		}
	}
	probs := p.probs[:len(candidates)]
	var z float64
	for i, a := range candidates {
		probs[i] = math.Exp(p.values[a] - maxPref)
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
	cand := p.candidates(allowed)
	if len(cand) == 0 {
		return -1
	}
	probs := p.softmax(cand)
	u := p.rng.Float64()
	acc := 0.0
	for i, pr := range probs {
		acc += pr
		if u < acc {
			return p.selected(cand[i])
		}
	}
	return p.selected(cand[len(cand)-1])
}

// Update implements Policy: the ledger books the play, then every
// preference moves against the baseline.
func (p *Gradient) Update(arm int, reward float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.record(arm, reward) {
		return
	}
	p.meanR += (reward - p.meanR) / float64(p.total)
	all := p.candidates(nil)
	probs := p.softmax(all)
	adv := reward - p.meanR
	for i, a := range all {
		if a == arm {
			p.values[a] += p.alpha * adv * (1 - probs[i])
		} else {
			p.values[a] -= p.alpha * adv * probs[i]
		}
	}
	p.emit("update", arm, reward, p.values[arm])
}
