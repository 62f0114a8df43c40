package compress

// PAA implements Piecewise Aggregate Approximation (Keogh et al. 2001;
// Yi & Faloutsos 2000): the series is segmented into fixed windows and each
// window is replaced by its mean. Window size controls the ratio. PAA is
// the paper's strongest candidate for Sum/Avg aggregation accuracy (Fig 8)
// because it preserves window means exactly.
//
// Layout: uvarint n | uvarint window | means as float64.
type PAA struct{}

// NewPAA returns the PAA codec.
func NewPAA() *PAA { return &PAA{} }

// Name implements Codec.
func (*PAA) Name() string { return "paa" }

// CompressInto implements Codec: window 1 (a near-exact representation).
func (p *PAA) CompressInto(dst []byte, values []float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	return paaEncode(dst, values, 1), nil
}

// CompressRatio implements LossyCodec.
func (p *PAA) CompressRatio(values []float64, ratio float64) (Encoded, error) {
	return p.CompressRatioInto(nil, values, ratio)
}

// CompressRatioInto implements LossyCodec.
func (p *PAA) CompressRatioInto(dst []byte, values []float64, ratio float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	if ratio <= 0 {
		return Encoded{}, ErrRatioInfeasible
	}
	return paaEncode(dst, values, paaWindowForRatio(len(values), ratio)), nil
}

// paaWindowForRatio derives the window size from the byte budget, keeping
// header bytes and the ceiling division inside the budget.
func paaWindowForRatio(n int, ratio float64) int {
	if ratio >= 1 {
		return 1
	}
	const header = 8 // two uvarints, conservatively
	budget := int(ratio * float64(8*n))
	maxMeans := (budget - header) / 8
	if maxMeans < 1 {
		maxMeans = 1
	}
	if maxMeans > n {
		maxMeans = n
	}
	return (n + maxMeans - 1) / maxMeans
}

func paaEncode(dst []byte, values []float64, window int) Encoded {
	out := putWindowedHeader(dst, len(values), window, 8)
	for start := 0; start < len(values); start += window {
		end := start + window
		if end > len(values) {
			end = len(values)
		}
		var sum float64
		for _, v := range values[start:end] {
			sum += v
		}
		out = appendF64(out, sum/float64(end-start))
	}
	return Encoded{Codec: "paa", Data: out, N: len(values)}
}

// MinRatio implements LossyCodec: one window covering the whole segment.
func (*PAA) MinRatio(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 1
	}
	return (4 + 8) / float64(8*n) // header + one mean
}

// DecompressInto implements Codec: each mean is replicated across its
// window.
func (p *PAA) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != p.Name() {
		return nil, ErrCodecMismatch
	}
	n, window, recs, err := windowedHeader(enc.Data, 8)
	if err != nil {
		return nil, err
	}
	return replicate(growFloats(dst, n), n, window, recs), nil
}

// replicate appends each float64 of recs once per point of its window, n
// points in all (PAA means, RRD samples).
func replicate(out []float64, n, window int, recs []byte) []float64 {
	for ; len(recs) > 0; recs = recs[8:] {
		v := f64At(recs)
		for i := 0; i < window && len(out) < n; i++ {
			out = append(out, v)
		}
	}
	return out
}

// Recode implements Recoder: RecodeInto into a fresh buffer.
func (p *PAA) Recode(enc Encoded, ratio float64) (Encoded, error) {
	return p.RecodeInto(nil, enc, ratio)
}

// RecodeInto implements Recoder: adjacent windows are merged by weighted mean,
// widening the window without reconstructing the raw series ("apply PAA
// compression to data already compressed with PAA", paper §IV-E).
func (p *PAA) RecodeInto(dst []byte, enc Encoded, ratio float64) (Encoded, error) {
	if enc.Codec != p.Name() {
		return Encoded{}, ErrCodecMismatch
	}
	n, window, recs, err := windowedHeader(enc.Data, 8)
	if err != nil {
		return Encoded{}, err
	}
	targetWindow := paaWindowForRatio(n, ratio)
	if targetWindow <= window {
		return enc, nil
	}
	// Merge m old windows per new window; the merged window size is a
	// multiple of the old one so the weighted mean is exact.
	m := (targetWindow + window - 1) / window
	count := len(recs) / 8
	out := putWindowedHeader(dst, n, m*window, 8)
	for start := 0; start < count; start += m {
		var sum, weight float64
		for j := start; j < min(start+m, count); j++ {
			// Every old window holds `window` points except possibly the
			// final one.
			w := float64(window)
			if j == count-1 {
				if rem := n % window; rem != 0 {
					w = float64(rem)
				}
			}
			sum += f64At(recs[8*j:]) * w
			weight += w
		}
		out = appendF64(out, sum/weight)
	}
	return Encoded{Codec: p.Name(), Data: out, N: n}, nil
}
