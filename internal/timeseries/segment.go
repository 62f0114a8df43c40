// Package timeseries holds the segment-level substrate shared across
// AdaEdge: the decimal precisions the datasets guarantee, and the
// distribution statistics a data-feature selector keys on.
package timeseries

import (
	"errors"
	"math"
)

// Precision describes the number of decimal digits a dataset guarantees.
// BUFF and Sprintz use it to bound the fractional bit width.
type Precision int

// Common dataset precisions from the paper's evaluation setup:
// four digits for CBF, five for UCR, six for UCI.
const (
	PrecisionCBF Precision = 4
	PrecisionUCR Precision = 5
	PrecisionUCI Precision = 6
)

// ErrEmptySegment is returned by operations that require at least one point.
var ErrEmptySegment = errors.New("timeseries: empty segment")

// Stats summarizes a segment's value distribution, the compressibility
// features the CodecDB-style baseline selector keys on.
type Stats struct {
	Min, Max  float64
	Mean      float64
	Std       float64
	Distinct  int     // occupied bins of the 64-bin value histogram
	Entropy   float64 // empirical Shannon entropy of value histogram, bits/value
	FirstDiff float64 // mean absolute first difference, a smoothness proxy
}

// ComputeStats scans a segment's values once and derives distribution
// statistics.
func ComputeStats(values []float64) (Stats, error) {
	if len(values) == 0 {
		return Stats{}, ErrEmptySegment
	}
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sumSq float64
	for _, v := range values {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		sum += v
		sumSq += v * v
	}
	n := float64(len(values))
	st.Mean = sum / n
	variance := sumSq/n - st.Mean*st.Mean
	if variance < 0 {
		variance = 0
	}
	st.Std = math.Sqrt(variance)

	var diffSum float64
	for i := 1; i < len(values); i++ {
		diffSum += math.Abs(values[i] - values[i-1])
	}
	if len(values) > 1 {
		st.FirstDiff = diffSum / float64(len(values)-1)
	}

	st.Distinct, st.Entropy = histogramEntropy(values, st.Min, st.Max)
	return st, nil
}

// histogramEntropy buckets values into up to 64 equal-width bins and returns
// (distinct bins occupied, Shannon entropy in bits).
func histogramEntropy(values []float64, min, max float64) (int, float64) {
	const bins = 64
	if max <= min {
		return 1, 0
	}
	var counts [bins]int
	width := (max - min) / bins
	for _, v := range values {
		b := int((v - min) / width)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	n := float64(len(values))
	distinct := 0
	entropy := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		distinct++
		p := float64(c) / n
		entropy -= p * math.Log2(p)
	}
	return distinct, entropy
}
