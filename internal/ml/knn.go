package ml

// KNN is a k-nearest-neighbour classifier over Euclidean distance. Unlike
// tree models it degrades smoothly under lossy compression: predictions
// only change when perturbations move a point across a class boundary
// (paper Fig 7c).
type KNN struct {
	// K is the neighbourhood size.
	K int
	// X and Y are the memorized training rows and labels. Exported for
	// serialization.
	X [][]float64
	Y []int
	// Classes is the number of distinct labels.
	Classes int
}

// FitKNN memorizes the training set. k of 0 selects 5.
func FitKNN(X [][]float64, y []int, k int) (*KNN, error) {
	if err := validate(X, y); err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 5
	}
	if k > len(X) {
		k = len(X)
	}
	cx := make([][]float64, len(X))
	for i, row := range X {
		cx[i] = append([]float64(nil), row...)
	}
	return &KNN{K: k, X: cx, Y: append([]int(nil), y...), Classes: maxLabel(y) + 1}, nil
}

// neighbour is one candidate of KNN.Predict's nearest set.
type neighbour struct {
	d float64
	y int
}

// Predict implements Classifier. For K and Classes up to stackClasses (the
// default K is 5) the nearest set and the tally live on the stack.
func (m *KNN) Predict(x []float64) int {
	var nstack [stackClasses]neighbour
	nearest := nstack[:0]
	if m.K > len(nstack) {
		nearest = make([]neighbour, 0, m.K)
	}
	worst := -1.0
	for i, row := range m.X {
		d := euclideanSq(x, row)
		if len(nearest) < m.K {
			nearest = append(nearest, neighbour{d, m.Y[i]})
			if d > worst {
				worst = d
			}
			continue
		}
		if d >= worst {
			continue
		}
		// Replace the current farthest.
		fi, fd := 0, -1.0
		for j, e := range nearest {
			if e.d > fd {
				fi, fd = j, e.d
			}
		}
		nearest[fi] = neighbour{d, m.Y[i]}
		worst = -1
		for _, e := range nearest {
			if e.d > worst {
				worst = e.d
			}
		}
	}
	// Majority with low-label tie-break; the tally does not depend on the
	// order of the nearest set, and distance ties were settled above in
	// favour of the lower row index.
	var vstack [stackClasses]int
	votes := voteSlots(vstack[:], m.Classes)
	for _, e := range nearest {
		if e.y >= 0 && e.y < len(votes) {
			votes[e.y]++
		}
	}
	return argmax(votes)
}
