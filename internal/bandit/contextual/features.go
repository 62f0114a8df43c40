// Package contextual holds the predictive layer's features and
// predictor: cheap per-segment features feed an online ridge-regression
// predictor of each codec's compression ratio and reward. Its reward predictions become the per-segment priors of
// bandit.Contextual, which warm-starts from them instead of exploring
// cold (ROADMAP item 4: Oikawa et al.'s online sequential ratio
// estimation, Huang & Zhou's deadline-constrained ratio selection; see
// DESIGN.md §11).
//
// Everything here runs in the evaluator hot path on the decision
// goroutine, so the package follows the repo's zero-allocation contract
// (DESIGN.md §10): FeaturesInto is an append-style API over caller
// scratch and the predictor updates in place over preallocated
// matrices. Nothing reads the wall clock or global RNG state, so seeded
// runs stay byte-identical (core's contextual determinism tests pin it).
package contextual

import "math"

// NumFeatures is the length of the vector FeaturesInto produces.
const NumFeatures = 6

// featureBuckets is the histogram resolution of the entropy estimate.
// 16 buckets keeps the histogram in one cache line and the per-point
// work to one subtract, one multiply and one clamp.
const featureBuckets = 16

// FeaturesInto computes the segment feature vector into dst[:0] and
// returns the filled slice (append API: pass the previous return value
// back in and the call is allocation-free after the first). All features
// are pure functions of values, dimensionless and bounded in [0,1]:
//
//	bias             1, the regression intercept
//	entropy          Shannon entropy of a 16-bucket value histogram,
//	                 normalized by log2(16) — high for noisy segments,
//	                 low for flat or few-level ones
//	delta_variance   variance of successive range-normalized deltas —
//	                 separates smooth drifts from oscillation
//	repetition       fraction of points exactly equal to their
//	                 predecessor — run-length/dictionary friendliness
//	mean_abs_delta   mean |delta| over the value range — roughness
//	bucket_occupancy fraction of histogram buckets hit — coarse
//	                 cardinality of the value distribution
//
// A constant segment yields (1, 0, 0, 1, 0, 1/16); a single point has no
// deltas and reports zero repetition and roughness.
func FeaturesInto(dst []float64, values []float64) []float64 {
	dst = dst[:0]
	n := len(values)
	if n == 0 {
		return append(dst, 1, 0, 0, 0, 0, 0)
	}

	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo

	var hist [featureBuckets]int
	if span == 0 {
		hist[0] = n
	} else {
		scale := float64(featureBuckets) / span
		for _, v := range values {
			b := int((v - lo) * scale)
			if b >= featureBuckets {
				b = featureBuckets - 1
			}
			hist[b]++
		}
	}
	entropy, occupied := 0.0, 0
	invN := 1 / float64(n)
	for _, c := range hist {
		if c == 0 {
			continue
		}
		occupied++
		p := float64(c) * invN
		entropy -= p * math.Log2(p)
	}
	entropy /= math.Log2(featureBuckets)
	if entropy > 1 {
		entropy = 1
	}

	var deltaVar, meanAbs, repetition float64
	if n > 1 {
		invSpan := 0.0
		if span > 0 {
			invSpan = 1 / span
		}
		var sum, sumSq, absSum float64
		repeats := 0
		for i := 1; i < n; i++ {
			d := (values[i] - values[i-1]) * invSpan
			sum += d
			sumSq += d * d
			if d < 0 {
				d = -d
			}
			absSum += d
			if values[i] == values[i-1] {
				repeats++
			}
		}
		m := float64(n - 1)
		mean := sum / m
		deltaVar = sumSq/m - mean*mean
		if deltaVar < 0 { // rounding
			deltaVar = 0
		}
		if deltaVar > 1 {
			deltaVar = 1
		}
		// |d| ≤ 1 after range normalization, so the mean is too.
		meanAbs = absSum / m
		repetition = float64(repeats) / m
	}

	return append(dst, 1, entropy, deltaVar, repetition, meanAbs,
		float64(occupied)/featureBuckets)
}
