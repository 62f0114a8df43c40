package ml

import (
	"math"
	"math/rand"
)

// KMeans is Lloyd's clustering with kmeans++ initialization. The cluster
// assignment of a row is treated as its "label", matching the paper's use
// of clustering agreement as an ML accuracy target (Figs 7d, 12–14).
type KMeans struct {
	// Centroids are the fitted cluster centres. Exported for serialization.
	Centroids [][]float64
}

// KMeansConfig parameterizes clustering.
type KMeansConfig struct {
	// K is the number of clusters; 0 selects 3.
	K int
	// MaxIter bounds Lloyd iterations; 0 selects 50.
	MaxIter int
	// Seed drives kmeans++ initialization deterministically.
	Seed int64
}

// FitKMeans clusters X.
func FitKMeans(X [][]float64, cfg KMeansConfig) (*KMeans, error) {
	if len(X) == 0 || len(X[0]) == 0 {
		return nil, ErrBadTrainingData
	}
	dim := len(X[0])
	for _, row := range X {
		if len(row) != dim {
			return nil, ErrBadTrainingData
		}
	}
	if cfg.K <= 0 {
		cfg.K = 3
	}
	if cfg.K > len(X) {
		cfg.K = len(X)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 50
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	centroids := kmeansPlusPlus(X, cfg.K, rng)
	assign := make([]int, len(X))
	for iter := 0; iter < cfg.MaxIter; iter++ {
		changed := false
		for i, row := range X {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := euclideanSq(row, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		sums := make([][]float64, cfg.K)
		counts := make([]int, cfg.K)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, row := range X {
			c := assign[i]
			counts[c]++
			for j, v := range row {
				sums[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // keep the stale centroid for empty clusters
			}
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return &KMeans{Centroids: centroids}, nil
}

// kmeansPlusPlus seeds centroids with D² weighting.
func kmeansPlusPlus(X [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := append([]float64(nil), X[rng.Intn(len(X))]...)
	centroids = append(centroids, first)
	d2 := make([]float64, len(X))
	for len(centroids) < k {
		var total float64
		for i, row := range X {
			best := math.Inf(1)
			for _, cen := range centroids {
				if d := euclideanSq(row, cen); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with centroids; duplicate one.
			centroids = append(centroids, append([]float64(nil), X[0]...))
			continue
		}
		target := rng.Float64() * total
		var acc float64
		pick := len(X) - 1
		for i, d := range d2 {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), X[pick]...))
	}
	return centroids
}

// Predict implements Classifier: the index of the nearest centroid.
func (m *KMeans) Predict(x []float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cen := range m.Centroids {
		if d := euclideanSq(x, cen); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
