package ml

import (
	"testing"
	"time"
)

// hostileTrees are decision trees whose Predict never returns or panics:
// Load must refuse each of them.
var hostileTrees = map[string]*DecisionTree{
	// The root is its own child: Predict loops forever.
	"self_loop": {Nodes: []TreeNode{{Feature: 0, Left: 0, Right: 0}}, Classes: 1},
	// A child past the end: Predict indexes out of range.
	"child_out_of_range": {Nodes: []TreeNode{{Feature: 0, Left: 1, Right: 7}, {Feature: -1}}, Classes: 1},
	// A back edge from a later node: a cycle of length two.
	"back_edge": {Nodes: []TreeNode{{Feature: 0, Left: 1, Right: 1}, {Feature: 0, Left: 0, Right: 0}}, Classes: 1},
	"no_nodes":  {Classes: 1},
}

func TestLoadRejectsHostileModels(t *testing.T) {
	// gob will not encode a nil tree, so that one is checked directly.
	if (&RandomForest{Trees: []*DecisionTree{nil}, Classes: 1}).valid() {
		t.Error("a forest with a nil tree is valid")
	}
	models := map[string]Classifier{
		"forest_classes":   &RandomForest{Trees: []*DecisionTree{{Nodes: []TreeNode{{Feature: -1}}, Classes: 1}}, Classes: -1},
		"forest_huge_vote": &RandomForest{Trees: []*DecisionTree{{Nodes: []TreeNode{{Feature: -1}}, Classes: 1}}, Classes: 1 << 40},
		"knn_ragged":       &KNN{K: 1, X: [][]float64{{1}, {2}}, Y: []int{0}, Classes: 1},
		"knn_zero_k":       &KNN{K: 0, X: [][]float64{{1}}, Y: []int{0}, Classes: 1},
		"knn_classes":      &KNN{K: 1, X: [][]float64{{1}}, Y: []int{0}, Classes: -3},
		"kmeans_ragged":    &KMeans{Centroids: [][]float64{{1, 2}, {1}}},
	}
	for name, tree := range hostileTrees {
		models[name] = tree
		models["forest_"+name] = &RandomForest{Trees: []*DecisionTree{tree}, Classes: 1}
	}
	for name, m := range models {
		blob, err := Marshal(m)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		if _, err := Unmarshal(blob); err == nil {
			t.Errorf("%s: Load accepted a model Predict cannot run", name)
		}
	}
}

// FuzzMLLoad: no bytes may make Load panic, a model Load accepts must
// predict (and return) on a probe vector, and Marshal of it must load back
// to a model that predicts the same.
func FuzzMLLoad(f *testing.F) {
	X, y := blobs(60, 4, 3, 0.5, 30)
	tree, _ := FitTree(X, y, TreeConfig{})
	forest, _ := FitForest(X, y, ForestConfig{Trees: 3, Seed: 30})
	knn, _ := FitKNN(X, y, 3)
	km, _ := FitKMeans(X, KMeansConfig{K: 3, Seed: 30})
	for _, m := range []Classifier{tree, forest, knn, km, hostileTrees["self_loop"]} {
		blob, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	probe := X[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected: fine
		}
		done := make(chan int, 1)
		go func() { done <- m.Predict(probe) }()
		var want int
		select {
		case want = <-done:
		case <-time.After(time.Second):
			t.Fatalf("%T: Predict did not return within 1s", m)
		}
		blob, err := Marshal(m)
		if err != nil {
			t.Fatalf("%T: accepted model does not marshal: %v", m, err)
		}
		back, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%T: re-marshalled model does not load: %v", m, err)
		}
		if got := back.Predict(probe); got != want {
			t.Fatalf("%T: predicts %d after a round trip, %d before", m, got, want)
		}
	})
}
