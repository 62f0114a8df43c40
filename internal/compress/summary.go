package compress

import "math"

// Summary implements the core of SummaryStore's space reclamation
// (Agrawal & Vulimiri, SOSP 2017; cited in paper §II): data is replaced by
// per-window aggregate summaries (min, max, sum) at a chosen compression
// ratio. Point reconstruction replicates the window mean, but the three
// headline aggregates remain *exact* with respect to the original data —
// which is why the codec implements the direct-aggregation interfaces.
// Recoding merges adjacent windows exactly (min of mins, max of maxes,
// sum of sums): the cheapest virtual decompression in the candidate set.
//
// Layout: uvarint n | uvarint window | windows ×(min f64, max f64, sum f64).
type Summary struct{}

// NewSummary returns the aggregate-summary codec.
func NewSummary() *Summary { return &Summary{} }

// Name implements Codec.
func (*Summary) Name() string { return "summary" }

const summaryWindowBytes = 24

// CompressInto implements Codec at ratio 1.
func (s *Summary) CompressInto(dst []byte, values []float64) (Encoded, error) {
	return s.CompressRatioInto(dst, values, 1.0)
}

// summaryWindowForRatio sizes windows from the byte budget.
func summaryWindowForRatio(n int, ratio float64) int {
	const header = 8
	budget := int(ratio * float64(8*n))
	maxWindows := (budget - header) / summaryWindowBytes
	if maxWindows < 1 {
		maxWindows = 1
	}
	if maxWindows > n {
		maxWindows = n
	}
	return (n + maxWindows - 1) / maxWindows
}

// CompressRatio implements LossyCodec.
func (s *Summary) CompressRatio(values []float64, ratio float64) (Encoded, error) {
	return s.CompressRatioInto(nil, values, ratio)
}

// CompressRatioInto implements LossyCodec.
func (s *Summary) CompressRatioInto(dst []byte, values []float64, ratio float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	if ratio <= 0 {
		return Encoded{}, ErrRatioInfeasible
	}
	window := summaryWindowForRatio(len(values), ratio)
	out := putWindowedHeader(dst, len(values), window, summaryWindowBytes)
	for start := 0; start < len(values); start += window {
		end := start + window
		if end > len(values) {
			end = len(values)
		}
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, v := range values[start:end] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			sum += v
		}
		out = appendF64(out, lo)
		out = appendF64(out, hi)
		out = appendF64(out, sum)
	}
	return Encoded{Codec: s.Name(), Data: out, N: len(values)}, nil
}

// MinRatio implements LossyCodec: a single summary window.
func (*Summary) MinRatio(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 1
	}
	return (8 + summaryWindowBytes) / float64(8*n)
}

// DecompressInto implements Codec: each window replays its mean.
func (s *Summary) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != s.Name() {
		return nil, ErrCodecMismatch
	}
	n, window, recs, err := windowedHeader(enc.Data, summaryWindowBytes)
	if err != nil {
		return nil, err
	}
	out := growFloats(dst, n)
	for ; len(recs) > 0; recs = recs[summaryWindowBytes:] {
		l := min(window, n-len(out))
		mean := f64At(recs[16:]) / float64(l)
		for i := 0; i < l; i++ {
			out = append(out, mean)
		}
	}
	return out, nil
}

// Recode implements Recoder: RecodeInto into a fresh buffer.
func (s *Summary) Recode(enc Encoded, ratio float64) (Encoded, error) {
	return s.RecodeInto(nil, enc, ratio)
}

// RecodeInto implements Recoder: adjacent summaries merge exactly.
func (s *Summary) RecodeInto(dst []byte, enc Encoded, ratio float64) (Encoded, error) {
	if enc.Codec != s.Name() {
		return Encoded{}, ErrCodecMismatch
	}
	n, window, recs, err := windowedHeader(enc.Data, summaryWindowBytes)
	if err != nil {
		return Encoded{}, err
	}
	targetWindow := summaryWindowForRatio(n, ratio)
	if targetWindow <= window {
		return enc, nil
	}
	m := (targetWindow + window - 1) / window
	out := putWindowedHeader(dst, n, m*window, summaryWindowBytes)
	for step := m * summaryWindowBytes; len(recs) > 0; recs = recs[min(step, len(recs)):] {
		lo, hi, sum := summaryMerge(recs[:min(step, len(recs))])
		out = appendF64(out, lo)
		out = appendF64(out, hi)
		out = appendF64(out, sum)
	}
	return Encoded{Codec: s.Name(), Data: out, N: n}, nil
}

// summaryMerge folds whole (min, max, sum) records, read in place, into
// the summary of their union: min of mins, max of maxes, sum of sums.
func summaryMerge(recs []byte) (lo, hi, sum float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for ; len(recs) > 0; recs = recs[summaryWindowBytes:] {
		lo = math.Min(lo, f64At(recs))
		hi = math.Max(hi, f64At(recs[8:]))
		sum += f64At(recs[16:])
	}
	return lo, hi, sum
}

// SumEncoded implements DirectSummer — exact with respect to the ORIGINAL
// data, not merely the reconstruction, because window sums are stored.
func (s *Summary) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != s.Name() {
		return 0, ErrCodecMismatch
	}
	_, _, recs, err := windowedHeader(enc.Data, summaryWindowBytes)
	if err != nil {
		return 0, err
	}
	_, _, sum := summaryMerge(recs)
	return sum, nil
}

// MinMaxEncoded implements DirectMinMaxer — exact with respect to the
// original data.
func (s *Summary) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != s.Name() {
		return 0, 0, ErrCodecMismatch
	}
	_, _, recs, err := windowedHeader(enc.Data, summaryWindowBytes)
	if err != nil {
		return 0, 0, err
	}
	lo, hi, _ := summaryMerge(recs)
	return lo, hi, nil
}
