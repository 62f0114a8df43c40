// Package query implements the aggregation workload AdaEdge optimizes for
// (paper §IV-D2): Min/Max/Sum/Avg operators over raw or decompressed
// segments and the relative-loss accuracy metric Acc_agg used for
// approximate query processing evaluation.
package query

import (
	"errors"
	"math"
)

// Agg identifies an aggregation operator.
type Agg int

// Supported aggregation operators.
const (
	Sum Agg = iota
	Avg
	Min
	Max
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "unknown"
	}
}

// ErrEmpty is returned when aggregating zero values.
var ErrEmpty = errors.New("query: empty input")

// Apply evaluates the operator over values.
func Apply(a Agg, values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	switch a {
	case Sum:
		var s float64
		for _, v := range values {
			s += v
		}
		return s, nil
	case Avg:
		var s float64
		for _, v := range values {
			s += v
		}
		return s / float64(len(values)), nil
	case Min:
		m := math.Inf(1)
		for _, v := range values {
			if v < m {
				m = v
			}
		}
		return m, nil
	case Max:
		m := math.Inf(-1)
		for _, v := range values {
			if v > m {
				m = v
			}
		}
		return m, nil
	default:
		return 0, errors.New("query: unknown aggregation")
	}
}

// Accuracy is the paper's Acc_agg = 1 - |Vtrue - Vlossy| / |Vtrue|. When
// the true value is zero the metric degenerates; we follow the standard
// approximate-query convention of returning 1 on exact match and 0
// otherwise.
func Accuracy(trueVal, lossyVal float64) float64 {
	if trueVal == 0 {
		if lossyVal == 0 {
			return 1
		}
		return 0
	}
	acc := 1 - math.Abs(trueVal-lossyVal)/math.Abs(trueVal)
	if acc < 0 {
		return 0
	}
	return acc
}
