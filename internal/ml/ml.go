// Package ml provides the machine-learning substrate for AdaEdge's
// accuracy-targeted compression selection (paper §IV-D1): CART decision
// trees, random forests, k-nearest-neighbour classification and KMeans
// clustering, plus model (de)serialization. Models are trained once on raw
// data and then treated as frozen ground truth: the metric of interest is
// prediction agreement between raw and lossy-decompressed inputs, not
// absolute label accuracy.
//
// Fitting is set-up work and uses every core: trees split by scanning each
// feature's rows, sorted once per fit, and FitForest fits its trees on
// several goroutines after drawing every random number on the caller's,
// so a model is a pure function of its data, config and seed.
package ml

import "errors"

// Classifier assigns a discrete label (class or cluster id) to a feature
// vector. All models in this package implement it.
type Classifier interface {
	Predict(x []float64) int
}

// ErrBadTrainingData is returned when a training set is empty or ragged.
var ErrBadTrainingData = errors.New("ml: empty or inconsistent training data")

// validate checks a feature matrix and label vector for consistency.
func validate(X [][]float64, y []int) error {
	if len(X) == 0 || len(X) != len(y) {
		return ErrBadTrainingData
	}
	dim := len(X[0])
	if dim == 0 {
		return ErrBadTrainingData
	}
	for _, row := range X {
		if len(row) != dim {
			return ErrBadTrainingData
		}
	}
	return nil
}

// MatchAccuracy is the paper's ACC_ml metric: the fraction of rows where
// the model's prediction on the lossy rows matches its prediction on the
// corresponding raw rows (raw predictions are the ground truth).
func MatchAccuracy(m Classifier, raw, lossy [][]float64) float64 {
	if len(raw) == 0 || len(raw) != len(lossy) {
		return 0
	}
	match := 0
	for i := range raw {
		if m.Predict(raw[i]) == m.Predict(lossy[i]) {
			match++
		}
	}
	return float64(match) / float64(len(raw))
}

// euclidean returns the squared Euclidean distance between vectors of equal
// length (extra dimensions in the longer vector are ignored).
func euclideanSq(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// maxLabel returns the largest label in y.
func maxLabel(y []int) int {
	m := 0
	for _, v := range y {
		if v > m {
			m = v
		}
	}
	return m
}

// stackClasses is how many vote counters (and KNN neighbours) Predict
// keeps in a stack array; models beyond it pay one heap slice per call.
const stackClasses = 16

// voteSlots returns n zeroed counters: a prefix of buf, the caller's
// zeroed stack array, when it is large enough.
func voteSlots(buf []int, n int) []int {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int, n)
}

// argmax returns the index of the largest count, the lowest on ties.
func argmax(counts []int) int {
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best
}
