package compress

// RRDSample simulates RRDTool's storage-bounding logic (paper §III-A):
// rather than deleting old data outright when the quota is reached, one
// value is sampled from each fixed window and replicated across the window
// on read. It is the fallback of last resort when every other lossy codec
// has hit its floor (paper Fig 12, the late ingestion phase).
//
// Sampling is deterministic: a seeded xorshift generator keyed by the
// codec seed and the window index, so compressing the same segment twice
// yields identical output.
//
// Layout: uvarint n | uvarint window | samples as float64.
type RRDSample struct{ seed uint64 }

// NewRRDSample returns the sampling codec with the given seed.
func NewRRDSample(seed uint64) *RRDSample {
	if seed == 0 {
		seed = 1
	}
	return &RRDSample{seed: seed}
}

// Name implements Codec.
func (*RRDSample) Name() string { return "rrdsample" }

// CompressInto implements Codec at ratio 1.
func (r *RRDSample) CompressInto(dst []byte, values []float64) (Encoded, error) {
	return r.CompressRatioInto(dst, values, 1.0)
}

// CompressRatio implements LossyCodec.
func (r *RRDSample) CompressRatio(values []float64, ratio float64) (Encoded, error) {
	return r.CompressRatioInto(nil, values, ratio)
}

// CompressRatioInto implements LossyCodec.
func (r *RRDSample) CompressRatioInto(dst []byte, values []float64, ratio float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	if ratio <= 0 {
		return Encoded{}, ErrRatioInfeasible
	}
	window := paaWindowForRatio(len(values), ratio)
	out := putWindowedHeader(dst, len(values), window, 8)
	state := r.seed
	for start := 0; start < len(values); start += window {
		end := start + window
		if end > len(values) {
			end = len(values)
		}
		state = xorshift(state + uint64(start))
		pick := start + int(state%uint64(end-start))
		out = appendF64(out, values[pick])
	}
	return Encoded{Codec: r.Name(), Data: out, N: len(values)}, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// MinRatio implements LossyCodec: one sample for the whole segment.
func (*RRDSample) MinRatio(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 1
	}
	return (4 + 8) / float64(8*n)
}

// DecompressInto implements Codec: each sample is replicated across its
// window.
func (r *RRDSample) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != r.Name() {
		return nil, ErrCodecMismatch
	}
	n, window, recs, err := windowedHeader(enc.Data, 8)
	if err != nil {
		return nil, err
	}
	return replicate(growFloats(dst, n), n, window, recs), nil
}

// Recode implements Recoder: RecodeInto into a fresh buffer.
func (r *RRDSample) Recode(enc Encoded, ratio float64) (Encoded, error) {
	return r.RecodeInto(nil, enc, ratio)
}

// RecodeInto implements Recoder: samples among the retained samples, widening
// the effective window without touching raw data.
func (r *RRDSample) RecodeInto(dst []byte, enc Encoded, ratio float64) (Encoded, error) {
	if enc.Codec != r.Name() {
		return Encoded{}, ErrCodecMismatch
	}
	n, window, recs, err := windowedHeader(enc.Data, 8)
	if err != nil {
		return Encoded{}, err
	}
	// The payload's own count, as every parser here: enc.N is metadata that
	// travels apart from the bytes (0 from a corrupt dump divided by zero).
	targetWindow := paaWindowForRatio(n, ratio)
	if targetWindow <= window {
		return enc, nil
	}
	m := (targetWindow + window - 1) / window
	count := len(recs) / 8
	out := putWindowedHeader(dst, n, m*window, 8)
	state := r.seed ^ 0x9e3779b97f4a7c15
	for start := 0; start < count; start += m {
		state = xorshift(state + uint64(start))
		pick := start + int(state%uint64(min(start+m, count)-start))
		out = append(out, recs[8*pick:8*pick+8]...)
	}
	return Encoded{Codec: r.Name(), Data: out, N: n}, nil
}
