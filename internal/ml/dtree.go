package ml

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
)

// DecisionTree is a CART classification tree with Gini-impurity splits.
// Tree models are the paper's canary workload: they branch on exact
// threshold comparisons, so even small lossy perturbations flip predictions
// (paper Fig 5).
type DecisionTree struct {
	// Nodes is the flattened tree; Nodes[0] is the root. Exported for
	// serialization.
	Nodes []TreeNode
	// Classes is the number of distinct labels seen at fit time.
	Classes int
}

// TreeNode is one node of a flattened decision tree.
type TreeNode struct {
	// Feature is the split feature index, or -1 for a leaf.
	Feature int
	// Threshold routes x[Feature] <= Threshold to Left, else Right.
	Threshold float64
	// Left and Right are child indexes into Nodes.
	Left, Right int
	// Label is the majority class (valid for leaves).
	Label int
}

// TreeConfig bounds tree growth.
type TreeConfig struct {
	// MaxDepth limits tree depth; 0 selects a default of 12.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf; 0 selects 2.
	MinLeaf int
	// MaxFeatures restricts the number of features examined per split
	// (used by random forests); 0 examines all features.
	MaxFeatures int
	// FeatureSeed drives the per-split feature subsample when MaxFeatures
	// is set.
	FeatureSeed uint64
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth == 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 2
	}
	return c
}

// FitTree trains a CART tree: the one-tree case of FitForest's fit, with
// every training row in the sample once.
func FitTree(X [][]float64, y []int, cfg TreeConfig) (*DecisionTree, error) {
	if err := validate(X, y); err != nil {
		return nil, err
	}
	all := make([]int, len(X))
	for i := range all {
		all[i] = 1
	}
	return fitTrees(X, y, [][]int{all}, []TreeConfig{cfg})[0], nil
}

// fitTrees fits tree t on the sample holding training row r counts[t][r]
// times, bounded by cfgs[t]. Each feature's rows are sorted once for all
// trees; the trees are then fit share-nothing, each a pure function of its
// sample and config, whatever the number of goroutines.
func fitTrees(X [][]float64, y []int, counts [][]int, cfgs []TreeConfig) []*DecisionTree {
	sorted := make([][]sortedRow, len(X[0]))
	flat := make([]sortedRow, len(X)*len(sorted))
	parallel(len(sorted), func(f int) {
		col := flat[f*len(X) : (f+1)*len(X)]
		for r, row := range X {
			col[r] = sortedRow{row[f], r}
		}
		slices.SortFunc(col, func(a, b sortedRow) int { return cmp.Compare(a.v, b.v) })
		sorted[f] = col
	})
	trees := make([]*DecisionTree, len(counts))
	parallel(len(trees), func(t int) {
		trees[t] = growTree(X, y, sorted, counts[t], cfgs[t].withDefaults())
	})
	return trees
}

// parallel calls fn(0) … fn(n-1) on min(GOMAXPROCS, n) goroutines and
// returns once every call has.
func parallel(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := k; i < n; i += workers {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sortedRow is one training row's value of one feature.
type sortedRow struct {
	v   float64
	row int
}

// grower holds one tree's fit: the presorted training set it reads and
// every scratch slice it writes, so a node allocates nothing.
type grower struct {
	X                  [][]float64
	y                  []int
	sorted             [][]sortedRow // per feature, every row in ascending value order; shared
	cfg                TreeConfig
	counts             []int // sample multiplicity per row
	node               []int // the node whose subtree holds each row now, -1 outside the sample
	rows               []int // the sampled rows, partitioned in place as the tree splits
	feats              []int
	total, left, right []int // class tallies of the node and of either side of a split
	t                  *DecisionTree
}

func growTree(X [][]float64, y []int, sorted [][]sortedRow, counts []int, cfg TreeConfig) *DecisionTree {
	c := maxLabel(y) + 1
	g := &grower{X: X, y: y, sorted: sorted, cfg: cfg, counts: counts, t: &DecisionTree{Classes: c},
		node: make([]int, len(X)), rows: make([]int, 0, len(X)), feats: make([]int, len(sorted)),
		total: make([]int, c), left: make([]int, c), right: make([]int, c)}
	for r, k := range counts {
		g.node[r] = -1
		if k > 0 {
			g.rows = append(g.rows, r)
		}
	}
	g.grow(0, len(g.rows), 0)
	return g.t
}

// grow builds the subtree over rows[lo:hi] and returns its node index.
// Nodes are laid out in preorder, so a child always follows its parent.
func (g *grower) grow(lo, hi, depth int) int {
	self := len(g.t.Nodes)
	clear(g.total)
	n := 0
	for _, r := range g.rows[lo:hi] {
		g.node[r] = self
		g.total[g.y[r]] += g.counts[r]
		n += g.counts[r]
	}
	label := argmax(g.total)
	g.t.Nodes = append(g.t.Nodes, TreeNode{Feature: -1, Label: label})
	if depth >= g.cfg.MaxDepth || n < 2*g.cfg.MinLeaf || g.total[label] == n { // pure: one class holds every sample
		return self
	}
	feat, thr, ok := g.bestSplit(self, n)
	if !ok {
		return self
	}
	mid, nl := lo, 0
	for i := lo; i < hi; i++ {
		if r := g.rows[i]; g.X[r][feat] <= thr {
			g.rows[i], g.rows[mid] = g.rows[mid], r
			mid++
			nl += g.counts[r]
		}
	}
	if nl < g.cfg.MinLeaf || n-nl < g.cfg.MinLeaf {
		return self
	}
	l := g.grow(lo, mid, depth+1)
	r := g.grow(mid, hi, depth+1)
	nd := &g.t.Nodes[self]
	nd.Feature, nd.Threshold, nd.Left, nd.Right = feat, thr, l, r
	return self
}

// bestSplit scans candidate features for the split minimizing weighted Gini
// impurity over the node's n samples, the rows marked self: one pass over
// each feature's presorted rows, skipping other nodes' rows, and no sort.
func (g *grower) bestSplit(self, n int) (feat int, thr float64, ok bool) {
	features := g.feats
	for i := range features {
		features[i] = i
	}
	if dim := len(features); g.cfg.MaxFeatures > 0 && g.cfg.MaxFeatures < dim {
		// Deterministic xorshift shuffle keyed by the node's sample size.
		state := g.cfg.FeatureSeed ^ uint64(n)*0x9e3779b97f4a7c15
		if state == 0 {
			state = 1
		}
		for i := dim - 1; i > 0; i-- {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			j := int(state % uint64(i+1))
			features[i], features[j] = features[j], features[i]
		}
		features = features[:g.cfg.MaxFeatures]
	}

	parentImp := giniFromCounts(g.total, n)
	bestGain := 1e-9
	nf := float64(n)
	for _, f := range features {
		clear(g.left)
		copy(g.right, g.total)
		nl, nr := 0, n
		// prev's samples move left once the node's next row is seen; a
		// split is scored only between two distinct values.
		prev := sortedRow{row: -1}
		for _, e := range g.sorted[f] {
			if g.node[e.row] != self {
				continue
			}
			if prev.row >= 0 {
				c, label := g.counts[prev.row], g.y[prev.row]
				g.left[label] += c
				g.right[label] -= c
				nl, nr = nl+c, nr-c
				if prev.v != e.v {
					gain := parentImp - (float64(nl)/nf)*giniFromCounts(g.left, nl) - (float64(nr)/nf)*giniFromCounts(g.right, nr)
					if gain > bestGain {
						bestGain, feat, thr, ok = gain, f, (prev.v+e.v)/2, true
					}
				}
			}
			prev = e
		}
	}
	return feat, thr, ok
}

func giniFromCounts(counts []int, n int) float64 {
	imp := 1.0
	nf := float64(n)
	for _, c := range counts {
		p := float64(c) / nf
		imp -= p * p
	}
	return imp
}

// Predict implements Classifier.
func (t *DecisionTree) Predict(x []float64) int {
	node := 0
	for {
		n := t.Nodes[node]
		if n.Feature < 0 {
			return n.Label
		}
		v := math.Inf(1)
		if n.Feature < len(x) {
			v = x[n.Feature]
		}
		if v <= n.Threshold {
			node = n.Left
		} else {
			node = n.Right
		}
	}
}
