package bandit

import (
	"fmt"
	"sync"
)

// Pool manages one bandit instance per compression-ratio range, the design
// behind AdaEdge's offline selection (paper §IV-C2): reward landscapes
// differ so much across ratio ranges that a single lossy-selection bandit
// cannot capture them, so each range gets a dedicated instance.
type Pool struct {
	mu     sync.Mutex
	arms   int
	cfg    Config
	make   func(arms int, cfg Config) Policy
	bounds []float64      // descending range boundaries, e.g. [0.5, 0.25, 0.125]
	pols   map[int]Policy // guarded by mu
}

// DefaultRatioBounds are the range boundaries used by the offline engine:
// ranges (1,0.5], (0.5,0.25], (0.25,0.125], (0.125,0.0625], (0.0625,0].
var DefaultRatioBounds = []float64{0.5, 0.25, 0.125, 0.0625}

// NewPool builds a pool creating policies with factory (nil selects
// optimistic ε-greedy via NewEpsilonGreedy).
func NewPool(arms int, cfg Config, bounds []float64, factory func(int, Config) Policy) *Pool {
	if factory == nil {
		factory = func(a int, c Config) Policy { return NewEpsilonGreedy(a, c) }
	}
	if bounds == nil {
		bounds = DefaultRatioBounds
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Pool{arms: arms, cfg: cfg, make: factory, bounds: b, pols: make(map[int]Policy)}
}

// bucket maps a target ratio to its range index: 0 for ratios above
// bounds[0], len(bounds) for ratios at or below the last boundary.
func (p *Pool) bucket(ratio float64) int {
	for i, b := range p.bounds {
		if ratio > b {
			return i
		}
	}
	return len(p.bounds)
}

// For returns the policy instance responsible for the ratio range that
// contains the target ratio, creating it on first use. Each instance gets a
// distinct deterministic seed.
func (p *Pool) For(ratio float64) Policy {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.bucket(ratio)
	pol, ok := p.pols[b]
	if !ok {
		cfg := p.cfg
		cfg.Seed = p.cfg.Seed*31 + int64(b) + 1
		if cfg.Name != "" {
			// Distinguish ratio-range instances in the decision trace.
			cfg.Name = fmt.Sprintf("%s[%d]", cfg.Name, b)
		}
		pol = p.make(p.arms, cfg)
		p.pols[b] = pol
	}
	return pol
}
