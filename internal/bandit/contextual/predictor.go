package contextual

// Online ridge regression per arm (recursive least squares with a
// Sherman–Morrison rank-one inverse update). Each arm keeps one shared
// d×d inverse design matrix P = (λI + Σ x xᵀ)⁻¹ and two weight
// vectors — one per predicted target (ratio, reward) — so a single
// O(d²) update per observation trains both heads.
//
// Determinism: Observe and Predict are pure arithmetic over the stored
// state; there is no RNG, no clock, and no map iteration. Feeding the
// same observation sequence always reproduces the same predictions,
// which is what lets the engine's deadline gate depend on them without
// breaking the seeded-trace contract (DESIGN.md §7, §11).
//
// Concurrency: a Predictor is NOT internally synchronized. The engine
// owns it on the decision goroutine, where every Observe/Predict call
// already happens in decision order; adding a lock would only shadow
// the policy mutex discipline the rest of the bandit layer uses.

// Targets bundles the predicted per-arm quantities. An arm's encode
// latency is not among them: the engine reads it from its deterministic
// cost model, which needs no learning.
type Targets struct {
	// Ratio is the achieved compression ratio (compressed/raw).
	Ratio float64
	// Reward is the bandit reward in [0,1] the arm earned.
	Reward float64
}

// numHeads is the number of regression targets sharing each arm's P.
const numHeads = 2

// Predictor is the per-arm RLS state.
type Predictor struct {
	arms, dim int
	ridge     float64

	p  []float64 // arms × dim×dim inverse design matrices
	w  []float64 // arms × numHeads×dim weight vectors
	n  []int     // per-arm observation counts
	px []float64 // scratch: P·x
}

// NewPredictor builds a predictor for arms arms over dim-dimensional
// feature vectors. ridge is the regularizer λ (≤ 0 selects 1), which
// also bounds the initial inverse P = I/λ.
func NewPredictor(arms, dim int, ridge float64) *Predictor {
	if arms <= 0 || dim <= 0 {
		panic("contextual: invalid predictor shape")
	}
	if ridge <= 0 {
		ridge = 1
	}
	p := &Predictor{
		arms:  arms,
		dim:   dim,
		ridge: ridge,
		p:     make([]float64, arms*dim*dim),
		w:     make([]float64, arms*numHeads*dim),
		n:     make([]int, arms),
		px:    make([]float64, dim),
	}
	p.reset()
	return p
}

func (p *Predictor) reset() {
	for i := range p.p {
		p.p[i] = 0
	}
	for i := range p.w {
		p.w[i] = 0
	}
	for a := 0; a < p.arms; a++ {
		base := a * p.dim * p.dim
		for i := 0; i < p.dim; i++ {
			p.p[base+i*p.dim+i] = 1 / p.ridge
		}
	}
	for i := range p.n {
		p.n[i] = 0
	}
}

// Observations returns how many samples arm has absorbed.
func (p *Predictor) Observations(arm int) int {
	if arm < 0 || arm >= p.arms {
		return 0
	}
	return p.n[arm]
}

// Observe folds one (features, outcomes) sample into arm's model:
// the RLS gain g = P·x / (1 + xᵀP·x) updates every head's weights by
// its own residual, then P absorbs the rank-one term. O(dim²), no
// allocations.
func (p *Predictor) Observe(arm int, x []float64, t Targets) {
	if arm < 0 || arm >= p.arms || len(x) != p.dim {
		return
	}
	d := p.dim
	P := p.p[arm*d*d : (arm+1)*d*d]

	// px = P·x (P is symmetric); denom = 1 + xᵀ·px.
	denom := 1.0
	for i := 0; i < d; i++ {
		s := 0.0
		row := P[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			s += row[j] * x[j]
		}
		p.px[i] = s
		denom += x[i] * s
	}

	ys := [numHeads]float64{t.Ratio, t.Reward}
	for h := 0; h < numHeads; h++ {
		w := p.w[(arm*numHeads+h)*d : (arm*numHeads+h+1)*d]
		pred := 0.0
		for i := 0; i < d; i++ {
			pred += w[i] * x[i]
		}
		g := (ys[h] - pred) / denom
		for i := 0; i < d; i++ {
			w[i] += p.px[i] * g
		}
	}

	// P ← P − (P·x)(P·x)ᵀ / denom.
	for i := 0; i < d; i++ {
		gi := p.px[i] / denom
		row := P[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			row[j] -= gi * p.px[j]
		}
	}
	p.n[arm]++
}

// Predict evaluates arm's two heads at x, clamped to their physical
// ranges (ratio ≥ 0, reward in [0,1]). An arm with zero
// observations predicts the zero vector — callers treat those arms as
// "no prediction" (cold) rather than trusting the prior. Allocation-free.
func (p *Predictor) Predict(arm int, x []float64) Targets {
	if arm < 0 || arm >= p.arms || len(x) != p.dim {
		return Targets{}
	}
	d := p.dim
	var out [numHeads]float64
	for h := 0; h < numHeads; h++ {
		w := p.w[(arm*numHeads+h)*d : (arm*numHeads+h+1)*d]
		s := 0.0
		for i := 0; i < d; i++ {
			s += w[i] * x[i]
		}
		out[h] = s
	}
	t := Targets{Ratio: out[0], Reward: out[1]}
	if t.Ratio < 0 {
		t.Ratio = 0
	}
	if t.Reward < 0 {
		t.Reward = 0
	}
	if t.Reward > 1 {
		t.Reward = 1
	}
	return t
}
