package ml

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datasets"
)

// labelAccuracy is plain classification accuracy against true labels, the
// check that a model actually learns.
func labelAccuracy(m Classifier, X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	ok := 0
	for i := range X {
		if m.Predict(X[i]) == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(X))
}

// treeDepth is the depth of the subtree at node i (a leaf is 0).
func treeDepth(t *DecisionTree, i int) int {
	n := t.Nodes[i]
	if n.Feature < 0 {
		return 0
	}
	return 1 + max(treeDepth(t, n.Left), treeDepth(t, n.Right))
}

// inertia is the total within-cluster squared distance of X under m's
// centroids, the standard clustering quality measure.
func inertia(m *KMeans, X [][]float64) float64 {
	var total float64
	for _, row := range X {
		best := math.Inf(1)
		for _, cen := range m.Centroids {
			best = min(best, euclideanSq(row, cen))
		}
		total += best
	}
	return total
}

func blobs(n, dim, classes int, noise float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	centres := make([][]float64, classes)
	for c := range centres {
		centres[c] = make([]float64, dim)
		for j := range centres[c] {
			centres[c][j] = float64(c*10 + j%3)
		}
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % classes
		row := make([]float64, dim)
		for j := range row {
			row[j] = centres[c][j] + noise*rng.NormFloat64()
		}
		X[i] = row
		y[i] = c
	}
	return X, y
}

func TestTreeLearnsSeparableData(t *testing.T) {
	X, y := blobs(300, 4, 3, 0.5, 1)
	m, err := FitTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := labelAccuracy(m, X, y); acc < 0.95 {
		t.Fatalf("tree accuracy %.3f on separable blobs, want >= 0.95", acc)
	}
}

func TestTreeGeneralizes(t *testing.T) {
	X, y := blobs(400, 4, 3, 0.5, 2)
	train, trainY := X[:300], y[:300]
	test, testY := X[300:], y[300:]
	m, err := FitTree(train, trainY, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := labelAccuracy(m, test, testY); acc < 0.9 {
		t.Fatalf("tree test accuracy %.3f, want >= 0.9", acc)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	X, y := blobs(300, 4, 3, 2.0, 3)
	m, err := FitTree(X, y, TreeConfig{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := treeDepth(m, 0); d > 3 {
		t.Fatalf("depth %d exceeds MaxDepth 3", d)
	}
}

func TestTreeBadInput(t *testing.T) {
	if _, err := FitTree(nil, nil, TreeConfig{}); err != ErrBadTrainingData {
		t.Fatalf("want ErrBadTrainingData, got %v", err)
	}
	if _, err := FitTree([][]float64{{1, 2}, {1}}, []int{0, 1}, TreeConfig{}); err != ErrBadTrainingData {
		t.Fatalf("ragged rows: want ErrBadTrainingData, got %v", err)
	}
	if _, err := FitTree([][]float64{{1}}, []int{0, 1}, TreeConfig{}); err != ErrBadTrainingData {
		t.Fatalf("length mismatch: want ErrBadTrainingData, got %v", err)
	}
}

func TestTreePredictShortVector(t *testing.T) {
	X, y := blobs(100, 4, 2, 0.5, 4)
	m, err := FitTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Must not panic on a vector shorter than the training dim.
	_ = m.Predict([]float64{1})
}

func TestForestLearnsAndBeatsNoise(t *testing.T) {
	X, y := blobs(300, 6, 3, 1.5, 5)
	m, err := FitForest(X, y, ForestConfig{Trees: 15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := labelAccuracy(m, X, y); acc < 0.9 {
		t.Fatalf("forest accuracy %.3f, want >= 0.9", acc)
	}
	if len(m.Trees) != 15 {
		t.Fatalf("forest has %d trees, want 15", len(m.Trees))
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	X, y := blobs(200, 4, 3, 1.0, 6)
	m1, _ := FitForest(X, y, ForestConfig{Trees: 5, Seed: 9})
	m2, _ := FitForest(X, y, ForestConfig{Trees: 5, Seed: 9})
	for i := range X {
		if m1.Predict(X[i]) != m2.Predict(X[i]) {
			t.Fatal("same seed produced different forests")
		}
	}
}

func TestKNNLearns(t *testing.T) {
	X, y := blobs(200, 4, 3, 0.8, 7)
	m, err := FitKNN(X, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acc := labelAccuracy(m, X, y); acc < 0.95 {
		t.Fatalf("knn accuracy %.3f, want >= 0.95", acc)
	}
}

func TestKNNCopiesTrainingData(t *testing.T) {
	X, y := blobs(50, 3, 2, 0.5, 8)
	m, err := FitKNN(X, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Predict(X[0])
	X[0][0] = 1e9 // mutate the caller's copy
	if got := m.Predict([]float64{1e9, X[0][1], X[0][2]}); got != before && m.X[0][0] == 1e9 {
		t.Fatal("KNN aliased caller data")
	}
}

func TestKNNKDefaults(t *testing.T) {
	X, y := blobs(10, 2, 2, 0.1, 9)
	m, err := FitKNN(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 5 {
		t.Fatalf("default K = %d, want 5", m.K)
	}
	m, err = FitKNN(X[:3], y[:3], 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 3 {
		t.Fatalf("K clamped to %d, want 3", m.K)
	}
}

func TestKMeansClusterAgreement(t *testing.T) {
	X, _ := blobs(300, 4, 3, 0.5, 10)
	m, err := FitKMeans(X, KMeansConfig{K: 3, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Points from the same blob should mostly share a cluster.
	agreement := 0
	for i := 0; i+3 < len(X); i += 3 {
		if m.Predict(X[i]) == m.Predict(X[i+3]) {
			agreement++
		}
	}
	if frac := float64(agreement) / float64(len(X)/3-1); frac < 0.9 {
		t.Fatalf("within-blob agreement %.3f, want >= 0.9", frac)
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	X, _ := blobs(200, 4, 4, 1.0, 11)
	m1, _ := FitKMeans(X, KMeansConfig{K: 1, Seed: 3})
	m4, _ := FitKMeans(X, KMeansConfig{K: 4, Seed: 3})
	if inertia(m4, X) >= inertia(m1, X) {
		t.Fatalf("inertia should drop with more clusters: k1=%g k4=%g", inertia(m1, X), inertia(m4, X))
	}
}

func TestKMeansBadInput(t *testing.T) {
	if _, err := FitKMeans(nil, KMeansConfig{}); err != ErrBadTrainingData {
		t.Fatalf("want ErrBadTrainingData, got %v", err)
	}
	if _, err := FitKMeans([][]float64{{1, 2}, {1}}, KMeansConfig{}); err != ErrBadTrainingData {
		t.Fatalf("ragged: want ErrBadTrainingData, got %v", err)
	}
}

func TestMatchAccuracy(t *testing.T) {
	X, y := blobs(200, 4, 2, 0.5, 12)
	m, err := FitTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Identical inputs: perfect agreement.
	if acc := MatchAccuracy(m, X, X); acc != 1 {
		t.Fatalf("self match accuracy = %v, want 1", acc)
	}
	// Heavily corrupted inputs: agreement should drop.
	corrupt := make([][]float64, len(X))
	for i, row := range X {
		c := append([]float64(nil), row...)
		for j := range c {
			c[j] = -c[j] + 100
		}
		corrupt[i] = c
	}
	if acc := MatchAccuracy(m, X, corrupt); acc > 0.9 {
		t.Fatalf("corrupt match accuracy = %v, expected below 0.9", acc)
	}
	if got := MatchAccuracy(m, X, X[:1]); got != 0 {
		t.Fatalf("mismatched lengths should score 0, got %v", got)
	}
}

func TestSmallPerturbationKeepsAgreementHigh(t *testing.T) {
	// The core premise of BUFF-lossy winning on trees: tiny value changes
	// mostly keep predictions, large ones flip them.
	X, y := blobs(300, 4, 3, 1.0, 13)
	m, err := FitForest(X, y, ForestConfig{Trees: 10, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	perturb := func(eps float64) [][]float64 {
		rng := rand.New(rand.NewSource(14))
		out := make([][]float64, len(X))
		for i, row := range X {
			c := append([]float64(nil), row...)
			for j := range c {
				c[j] += eps * (rng.Float64()*2 - 1)
			}
			out[i] = c
		}
		return out
	}
	small := MatchAccuracy(m, X, perturb(0.01))
	large := MatchAccuracy(m, X, perturb(5.0))
	if small < 0.95 {
		t.Fatalf("tiny perturbation agreement %.3f, want >= 0.95", small)
	}
	if large >= small {
		t.Fatalf("agreement should degrade with perturbation: small=%.3f large=%.3f", small, large)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	X, y := blobs(150, 4, 3, 0.8, 15)
	tree, _ := FitTree(X, y, TreeConfig{})
	forest, _ := FitForest(X, y, ForestConfig{Trees: 5, Seed: 15})
	knn, _ := FitKNN(X, y, 3)
	km, _ := FitKMeans(X, KMeansConfig{K: 3, Seed: 15})
	for _, m := range []Classifier{tree, forest, knn, km} {
		blob, err := Marshal(m)
		if err != nil {
			t.Fatalf("%T: marshal: %v", m, err)
		}
		got, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", m, err)
		}
		for i := range X {
			if m.Predict(X[i]) != got.Predict(X[i]) {
				t.Fatalf("%T: prediction changed after round trip", m)
			}
		}
	}
}

func TestSerializationErrors(t *testing.T) {
	type fake struct{ Classifier }
	if err := Save(&bytes.Buffer{}, fake{}); err == nil {
		t.Fatal("expected error for unsupported model type")
	}
	if _, err := Unmarshal([]byte("garbage")); err == nil {
		t.Fatal("expected error for garbage input")
	}
}

func TestModelsOnCBF(t *testing.T) {
	// End-to-end sanity on the actual experiment dataset.
	X, y := datasets.CBF(240, datasets.CBFConfig{Seed: 16})
	tree, err := FitTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := labelAccuracy(tree, X, y); acc < 0.8 {
		t.Fatalf("tree CBF accuracy %.3f, want >= 0.8", acc)
	}
	knn, err := FitKNN(X, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acc := labelAccuracy(knn, X, y); acc < 0.8 {
		t.Fatalf("knn CBF accuracy %.3f, want >= 0.8", acc)
	}
}

// TestAllocsPredict pins Predict at zero allocations for every model: the
// online ML objective predicts twice per segment (raw and decoded), so one
// vote slice per call was 4 of edge_ml's 9.5 allocations per segment.
func TestAllocsPredict(t *testing.T) {
	X, y := blobs(300, 8, 3, 0.5, 20)
	tree, err := FitTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := FitForest(X, y, ForestConfig{Trees: 10, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := FitKNN(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	kmeans, err := FitKMeans(X, KMeansConfig{K: 3, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]Classifier{"tree": tree, "forest": forest, "knn": knn, "kmeans": kmeans} {
		if got := testing.AllocsPerRun(100, func() { m.Predict(X[7]) }); got != 0 {
			t.Errorf("%s.Predict allocates %v/op, want 0", name, got)
		}
	}
}

// TestPredictBeyondStackClasses drives the forest and KNN through the heap
// fallback their stack tallies take above stackClasses labels / neighbours.
func TestPredictBeyondStackClasses(t *testing.T) {
	classes := stackClasses + 4
	X, y := blobs(40*classes, 4, classes, 0.3, 21)
	forest, err := FitForest(X, y, ForestConfig{Trees: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if acc := labelAccuracy(forest, X, y); acc < 0.95 {
		t.Errorf("forest accuracy %.3f over %d classes, want >= 0.95", acc, classes)
	}
	knn, err := FitKNN(X, y, stackClasses+1)
	if err != nil {
		t.Fatal(err)
	}
	if acc := labelAccuracy(knn, X, y); acc < 0.95 {
		t.Errorf("knn accuracy %.3f with k=%d over %d classes, want >= 0.95", acc, knn.K, classes)
	}
}
