package bandit

// warmWeight is how many pseudo-plays one per-segment prediction is
// worth when blended with an arm's empirical estimate. Small counts let
// the prior steer early selection (the warm start); as real plays
// accumulate the empirical mean dominates and the policy degrades
// gracefully to plain greedy selection even when the predictor is wrong
// (DESIGN.md §11).
const warmWeight = 4.0

// Contextual is the contextual bandit policy: ε-greedy over a
// per-segment blend of empirical arm values and externally supplied
// reward priors (typically contextual.Predictor outputs for the current
// segment's features). Without priors it behaves like the optimistic
// ε-greedy baseline, so it is safe anywhere a Policy is expected —
// including the offline pool, which never sets priors.
//
// Exploration is directed: the ε branch plays the least-played allowed
// arm instead of a uniform pick, because the prior already covers the
// "which arm looks good" question and the residual uncertainty is in
// the arms with the least evidence.
type Contextual struct {
	ledger // values are the empirical estimates, starting at 0
	// priors are the per-segment predicted rewards, starting at Optimism.
	priors []float64
	// score is selection scratch, guarded by mu.
	score []float64
}

// NewContextual builds the policy for the given arm count.
func NewContextual(arms int, cfg Config) *Contextual {
	p := &Contextual{}
	p.init(arms, cfg, 0)
	p.priors = make([]float64, arms)
	p.score = make([]float64, arms)
	for i := range p.priors {
		p.priors[i] = cfg.Optimism
	}
	return p
}

// SetPriors installs this segment's predicted per-arm rewards. The
// engine calls it on the decision goroutine immediately before Select;
// the slice is copied, so callers may reuse their scratch. Arms beyond
// len(priors) keep their previous prior. Cold arms (no prediction yet)
// should be passed the Optimism value so they still get their forced
// early exploration.
func (p *Contextual) SetPriors(priors []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	copy(p.priors, priors)
}

// Select implements Policy: argmax over the prior-blended score
// (counts·value + warmWeight·prior)/(counts + warmWeight), with an
// ε-probability directed-exploration branch playing the least-played
// allowed arm. Ties break uniformly at random from the policy RNG, so
// seeded runs reproduce exactly. Estimates stay the empirical values:
// priors are a per-segment quantity the oracle layer never reads.
func (p *Contextual) Select(allowed []bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	cand := p.candidates(allowed)
	if len(cand) == 0 {
		return -1
	}
	explore := p.rng.Float64() < p.cfg.Epsilon
	for _, a := range cand {
		c := float64(p.counts[a])
		if explore {
			// The least-played arm has the highest negated count.
			p.score[a] = -c
		} else {
			p.score[a] = (c*p.values[a] + warmWeight*p.priors[a]) / (c + warmWeight)
		}
	}
	return p.selected(p.argmax(p.score))
}
