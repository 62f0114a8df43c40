package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bitio"
)

// Sprintz implements the Sprintz time-series compressor (Blalock et al.,
// IMWUT 2018): values are quantized to the dataset precision, predicted by
// the online FIRE (Fast Integer REgression) predictor, and the zigzag-coded
// residuals are bit-packed in blocks of eight with a per-block bit-width
// header. Sprintz is the strongest lossless candidate on smooth sensor
// signals (paper Figs 12/15).
//
// Lossless means value-equal, not bit-equal: values pass through an
// integer, so -0.0 decodes as +0.0 (see TestZeroSignContract).
//
// Layout: uvarint n | uvarint precision | zigzag-varint first value |
// blocks: [1B width | 8×width bits residuals]...
type Sprintz struct {
	precision int
	scale     float64
}

// NewSprintz returns a Sprintz codec quantizing at the given decimal
// precision (paper §V: 4 digits CBF, 5 UCR, 6 UCI).
func NewSprintz(precision int) *Sprintz {
	if precision < 0 {
		precision = 0
	}
	return &Sprintz{precision: precision, scale: math.Pow10(precision)}
}

// Name implements Codec.
func (*Sprintz) Name() string { return "sprintz" }

// fire is the adaptive linear predictor: pred = prev + alpha*(prev-prev2)/256
// with alpha nudged by the agreement between residual sign and recent trend.
type fire struct {
	prev, prev2 int64
	alpha       int64
}

func newFire(first int64) fire {
	return fire{prev: first, prev2: first, alpha: 256} // start at pure delta-of-delta weight 1
}

func (f *fire) predict() int64 {
	return f.prev + f.alpha*(f.prev-f.prev2)/256
}

// update observes the true value and adapts alpha.
func (f *fire) update(actual int64) {
	err := actual - f.predict()
	trend := f.prev - f.prev2
	switch {
	case err > 0 && trend > 0, err < 0 && trend < 0:
		if f.alpha < 512 {
			f.alpha += 8
		}
	case err > 0 && trend < 0, err < 0 && trend > 0:
		if f.alpha > 0 {
			f.alpha -= 8
		}
	}
	f.prev2 = f.prev
	f.prev = actual
}

// quantize maps v to its fixed-point representation, rejecting values the
// int64 pipeline cannot carry.
func (s *Sprintz) quantize(v float64) (int64, error) {
	q := math.Round(v * s.scale)
	if q > math.MaxInt64/4 || q < math.MinInt64/4 {
		return 0, fmt.Errorf("compress: value %g overflows sprintz quantization at precision %d", v, s.precision)
	}
	return int64(q), nil
}

// CompressInto implements Codec. Residuals are quantized, predicted
// and packed in one streaming pass over blocks of eight, so the encoder
// needs no intermediate slices — only dst.
func (s *Sprintz) CompressInto(dst []byte, values []float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	first, err := s.quantize(values[0])
	if err != nil {
		return Encoded{}, err
	}
	out := putUvarint(dst[:0], uint64(len(values)))
	out = putUvarint(out, uint64(s.precision))
	out = binary.AppendUvarint(out, bitio.ZigZag(first))

	var w bitio.Writer
	w.ResetBuf(out)
	f := newFire(first)
	var block [8]uint64
	for start := 1; start < len(values); start += 8 {
		end := start + 8
		if end > len(values) {
			end = len(values)
		}
		n := end - start
		for i := 0; i < n; i++ {
			q, err := s.quantize(values[start+i])
			if err != nil {
				return Encoded{}, err
			}
			block[i] = bitio.ZigZag(q - f.predict())
			f.update(q)
		}
		width := 0
		for _, r := range block[:n] {
			if b := bitsFor(r); r > 0 && b > width {
				width = b
			}
		}
		w.WriteBits(uint64(width), 7)
		for _, r := range block[:n] {
			w.WriteBits(r, uint(width))
		}
	}
	return Encoded{Codec: "sprintz", Data: w.Bytes(), N: len(values)}, nil
}

// DecompressInto implements Codec.
func (s *Sprintz) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != s.Name() {
		return nil, ErrCodecMismatch
	}
	data := enc.Data
	count, n, err := readCount(data)
	if err != nil {
		return nil, err
	}
	data = data[n:]
	prec, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	data = data[n:]
	firstZZ, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	data = data[n:]
	scale := math.Pow10(int(prec))

	first := bitio.UnZigZag(firstZZ)
	if uint64(cap(dst)) < count {
		dst = make([]float64, 0, count)
	}
	out := dst[:0]
	out = append(out, float64(first)/scale)
	f := newFire(first)
	var r bitio.Reader
	r.Reset(data)
	remaining := int(count) - 1
	for remaining > 0 {
		width, err := r.ReadBits(7)
		if err != nil || width > 64 {
			return nil, ErrCorrupt
		}
		blockLen := 8
		if remaining < 8 {
			blockLen = remaining
		}
		for i := 0; i < blockLen; i++ {
			rz, err := r.ReadBits(uint(width))
			if err != nil {
				return nil, ErrCorrupt
			}
			v := f.predict() + bitio.UnZigZag(rz)
			f.update(v)
			out = append(out, float64(v)/scale)
		}
		remaining -= blockLen
	}
	return out, nil
}
