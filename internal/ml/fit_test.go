package ml

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/datasets"
)

// nodeDigest is an FNV-1a hash over every node of the trees in order:
// feature, threshold bits, children and label. Two fits with the same
// digest predict identically on every input.
func nodeDigest(trees ...*DecisionTree) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, t := range trees {
		put(uint64(len(t.Nodes)))
		for _, n := range t.Nodes {
			put(uint64(n.Feature))
			put(math.Float64bits(n.Threshold))
			put(uint64(n.Left))
			put(uint64(n.Right))
			put(uint64(n.Label))
		}
	}
	return h.Sum64()
}

// benchForest is the forest cmd/adaedge-e2e's edge_ml workload fits in
// every set-up: 240 CBF series of 128 points at seed 1, 15 trees, seed 1.
func benchForest(tb testing.TB) *RandomForest {
	X, y := datasets.CBF(240, datasets.CBFConfig{Length: 128, Seed: 1})
	f, err := FitForest(X, y, ForestConfig{Trees: 15, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// goldenModels fits the five pinned models. Each returns its trees.
var goldenModels = []struct {
	name   string
	digest uint64
	fit    func(tb testing.TB) []*DecisionTree
}{
	{"edge_ml_forest", 0x10e064b34588e355, func(tb testing.TB) []*DecisionTree {
		return benchForest(tb).Trees
	}},
	{"fig6_forest_seed6", 0xe0b6daddf715b6fa, func(tb testing.TB) []*DecisionTree {
		X, y := datasets.UCRLike(240, 128, 4, 6)
		return mustForest(tb, X, y, ForestConfig{Trees: 15, Seed: 6}).Trees
	}},
	{"online_forest_seed77", 0xd6e31df66f2fe7b2, func(tb testing.TB) []*DecisionTree {
		X, y := datasets.CBF(240, datasets.CBFConfig{Seed: 77})
		return mustForest(tb, X, y, ForestConfig{Trees: 15, Seed: 77}).Trees
	}},
	{"online_tree_seed77", 0x62ef28b3a32351bc, func(tb testing.TB) []*DecisionTree {
		X, y := datasets.CBF(240, datasets.CBFConfig{Seed: 77})
		return []*DecisionTree{mustTree(tb, X, y, TreeConfig{})}
	}},
	{"uci_tree_depth3_leaf5", 0x0e7067b16d8ee753, func(tb testing.TB) []*DecisionTree {
		X, y := datasets.UCILike(300, 16, 3, 5)
		return []*DecisionTree{mustTree(tb, X, y, TreeConfig{MaxDepth: 3, MinLeaf: 5})}
	}},
}

func mustForest(tb testing.TB, X [][]float64, y []int, cfg ForestConfig) *RandomForest {
	f, err := FitForest(X, y, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func mustTree(tb testing.TB, X [][]float64, y []int, cfg TreeConfig) *DecisionTree {
	t, err := FitTree(X, y, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// TestForestGolden pins every node of the five models the experiments and
// the benchmark fit. The models are frozen ground truth for the accuracy
// objectives, so a failure means a fit changed, not that a digest needs
// refreshing.
func TestForestGolden(t *testing.T) {
	for _, m := range goldenModels {
		if got := nodeDigest(m.fit(t)...); got != m.digest {
			t.Errorf("%s: node digest %#016x, want %#016x", m.name, got, m.digest)
		}
	}
}

// TestFitForestDeterministic fits the benchmark's forest at GOMAXPROCS 1, 2
// and 8: how many goroutines fit the trees must not change a node.
func TestFitForestDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := goldenModels[0].digest
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got := nodeDigest(benchForest(t).Trees...); got != want {
			t.Errorf("GOMAXPROCS=%d: node digest %#016x, want %#016x", procs, got, want)
		}
	}
}

// benchSink keeps the benchmarks' fits observable to the compiler.
var benchSink Classifier

// BenchmarkFitForest fits the edge_ml forest, the bulk of that workload's
// set-up. Run with -cpu 1,2 to separate the split search from the second
// core.
func BenchmarkFitForest(b *testing.B) {
	X, y := datasets.CBF(240, datasets.CBFConfig{Length: 128, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = mustForest(b, X, y, ForestConfig{Trees: 15, Seed: 1})
	}
}

// BenchmarkFitTree fits one tree of default depth, every feature a
// candidate at every node, on the same training set.
func BenchmarkFitTree(b *testing.B) {
	X, y := datasets.CBF(240, datasets.CBFConfig{Length: 128, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = mustTree(b, X, y, TreeConfig{})
	}
}
