package ml

import (
	"math"
	"math/rand"
)

// RandomForest is a bagged ensemble of CART trees with per-split feature
// subsampling. Majority voting softens — but does not remove — the
// threshold sensitivity that makes tree models react to lossy compression
// (paper Fig 6).
type RandomForest struct {
	// Trees are the fitted ensemble members. Exported for serialization.
	Trees []*DecisionTree
	// Classes is the number of distinct labels.
	Classes int
}

// ForestConfig parameterizes forest training.
type ForestConfig struct {
	// Trees is the ensemble size; 0 or less selects 20.
	Trees int
	// Tree bounds each member's growth. MaxFeatures 0 selects sqrt(dim).
	Tree TreeConfig
	// Seed makes bootstrap sampling deterministic.
	Seed int64
}

// FitForest trains a random forest. Every random draw (each tree's
// bootstrap rows, then its FeatureSeed, tree by tree) is made here, on the
// caller's goroutine, from one rng seeded by cfg.Seed; only then are the
// trees fit, in parallel. The forest is a pure function of the seed.
func FitForest(X [][]float64, y []int, cfg ForestConfig) (*RandomForest, error) {
	if err := validate(X, y); err != nil {
		return nil, err
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 20
	}
	if cfg.Tree.MaxFeatures == 0 {
		cfg.Tree.MaxFeatures = max(1, int(math.Sqrt(float64(len(X[0])))))
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(X)
	counts := make([][]int, cfg.Trees)
	cfgs := make([]TreeConfig, cfg.Trees)
	for t := range counts {
		// Bootstrap with replacement: how many times each row of X is drawn.
		counts[t] = make([]int, n)
		for i := 0; i < n; i++ {
			counts[t][rng.Intn(n)]++
		}
		cfgs[t] = cfg.Tree
		cfgs[t].FeatureSeed = rng.Uint64()
	}
	return &RandomForest{Trees: fitTrees(X, y, counts, cfgs), Classes: maxLabel(y) + 1}, nil
}

// Predict implements Classifier by majority vote (ties break to the lower
// label for determinism). It runs once per raw and once per decoded
// segment on the online ML objective, so the tally stays off the heap.
func (f *RandomForest) Predict(x []float64) int {
	var stack [stackClasses]int
	votes := voteSlots(stack[:], f.Classes)
	for _, t := range f.Trees {
		p := t.Predict(x)
		if p >= 0 && p < len(votes) {
			votes[p]++
		}
	}
	return argmax(votes)
}
