package compress

import (
	"encoding/binary"
	"math"
)

// Modelar implements the core of ModelarDB's model-based compression
// (Jensen et al., VLDB 2018; cited in paper §II): the stream is greedily
// covered by the longest-fitting of two models under a per-value error
// bound ε — PMC-Mean (a constant) and Swing (a line pivoting on the
// segment's first value). ModelarDB selects ε from the storage budget; to
// fit AdaEdge's ratio-driven interface, CompressRatio binary-searches ε
// until the encoding meets the target size.
//
// Layout: uvarint n | model records: 1B kind | uvarint length |
// kind 0 (constant): value f64 | kind 1 (linear): first f64, last f64.
type Modelar struct{}

// NewModelar returns the model-based codec.
func NewModelar() *Modelar { return &Modelar{} }

// Name implements Codec.
func (*Modelar) Name() string { return "modelar" }

const (
	modelConst  = 0
	modelLinear = 1
)

// CompressInto implements Codec: error bound zero (still compresses
// constant and perfectly linear runs).
func (m *Modelar) CompressInto(dst []byte, values []float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	return modelarEncode(dst, values, 0), nil
}

// modelarEncode greedily covers values with the model that extends
// furthest under the error bound, appending the records to dst[:0].
func modelarEncode(dst []byte, values []float64, eps float64) Encoded {
	out := putUvarint(dst[:0], uint64(len(values)))
	i := 0
	for i < len(values) {
		cLen, cVal := pmcMean(values[i:], eps)
		lLen, lFirst, lLast := swing(values[i:], eps)
		if lLen > cLen {
			out = append(out, modelLinear)
			out = putUvarint(out, uint64(lLen))
			out = appendF64(out, lFirst)
			out = appendF64(out, lLast)
			i += lLen
			continue
		}
		out = append(out, modelConst)
		out = putUvarint(out, uint64(cLen))
		out = appendF64(out, cVal)
		i += cLen
	}
	return Encoded{Codec: "modelar", Data: out, N: len(values)}
}

// pmcMean extends a constant model while the running mid-range stays
// within eps of every covered value; returns the run length and constant.
func pmcMean(values []float64, eps float64) (int, float64) {
	lo, hi := values[0], values[0]
	n := 1
	for ; n < len(values); n++ {
		v := values[n]
		nlo, nhi := math.Min(lo, v), math.Max(hi, v)
		if nhi-nlo > 2*eps {
			break
		}
		lo, hi = nlo, nhi
	}
	return n, (lo + hi) / 2
}

// swing extends a linear model anchored at the first value, maintaining
// feasible slope bounds so every covered value is within eps of the line;
// returns the run length and the line's endpoint values.
func swing(values []float64, eps float64) (length int, first, last float64) {
	first = values[0]
	if len(values) == 1 {
		return 1, first, first
	}
	// Slope bounds from the second point.
	loSlope := values[1] - eps - first
	hiSlope := values[1] + eps - first
	n := 2
	for ; n < len(values); n++ {
		t := float64(n)
		nlo := math.Max(loSlope, (values[n]-eps-first)/t)
		nhi := math.Min(hiSlope, (values[n]+eps-first)/t)
		if nlo > nhi {
			break // point n does not fit; keep the pre-tightened bounds
		}
		loSlope, hiSlope = nlo, nhi
	}
	slope := (loSlope + hiSlope) / 2
	return n, first, first + slope*float64(n-1)
}

// DecompressInto implements Codec.
func (m *Modelar) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != m.Name() {
		return nil, ErrCodecMismatch
	}
	data := enc.Data
	count, c, err := readCount(data)
	if err != nil {
		return nil, err
	}
	data = data[c:]
	out := growFloats(dst, int(count))
	for uint64(len(out)) < count {
		if len(data) < 1 {
			return nil, ErrCorrupt
		}
		kind := data[0]
		data = data[1:]
		l, c := binary.Uvarint(data)
		if c <= 0 || l == 0 {
			return nil, ErrCorrupt
		}
		data = data[c:]
		switch kind {
		case modelConst:
			if len(data) < 8 {
				return nil, ErrCorrupt
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			for i := uint64(0); i < l && uint64(len(out)) < count; i++ {
				out = append(out, v)
			}
		case modelLinear:
			if len(data) < 16 {
				return nil, ErrCorrupt
			}
			first := math.Float64frombits(binary.LittleEndian.Uint64(data))
			last := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			data = data[16:]
			span := float64(l - 1)
			for i := uint64(0); i < l && uint64(len(out)) < count; i++ {
				if span == 0 {
					out = append(out, first)
					continue
				}
				t := float64(i) / span
				out = append(out, first+t*(last-first))
			}
		default:
			return nil, ErrCorrupt
		}
	}
	return out, nil
}

// CompressRatio implements LossyCodec.
func (m *Modelar) CompressRatio(values []float64, ratio float64) (Encoded, error) {
	return m.CompressRatioInto(nil, values, ratio)
}

// CompressRatioInto implements LossyCodec: binary-search the error bound.
// Only the exact encoding is written into dst directly; the search encodes
// each candidate into a fresh buffer and copies the winner into dst.
func (m *Modelar) CompressRatioInto(dst []byte, values []float64, ratio float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	if ratio <= 0 {
		return Encoded{}, ErrRatioInfeasible
	}
	budget := int(ratio * float64(8*len(values)))
	enc := modelarEncode(dst, values, 0)
	if enc.Size() <= budget {
		return enc, nil
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	epsLo, epsHi := 0.0, (hi-lo)/2+1e-12
	// At the maximal eps one constant model covers everything; if even
	// that misses the budget, the ratio is infeasible.
	maxEnc := modelarEncode(nil, values, epsHi)
	if maxEnc.Size() > budget {
		return Encoded{}, ErrRatioInfeasible
	}
	best := maxEnc
	for iter := 0; iter < 40; iter++ {
		mid := (epsLo + epsHi) / 2
		cand := modelarEncode(nil, values, mid)
		if cand.Size() <= budget {
			best = cand
			epsHi = mid
		} else {
			epsLo = mid
		}
	}
	best.Data = append(enc.Data[:0], best.Data...)
	return best, nil
}

// MinRatio implements LossyCodec: one constant model.
func (m *Modelar) MinRatio(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 1
	}
	return (4 + 1 + 4 + 8) / float64(8*n)
}

// Recode implements Recoder: RecodeInto into a fresh buffer.
func (m *Modelar) Recode(enc Encoded, ratio float64) (Encoded, error) {
	return m.RecodeInto(nil, enc, ratio)
}

// RecodeInto implements Recoder: the models are evaluated (virtual
// decompression — no raw data needed) and refit under a larger error
// bound to meet the tighter budget.
func (m *Modelar) RecodeInto(dst []byte, enc Encoded, ratio float64) (Encoded, error) {
	if enc.Codec != m.Name() {
		return Encoded{}, ErrCodecMismatch
	}
	n, _, err := readCount(enc.Data)
	if err != nil {
		return Encoded{}, err
	}
	budget := int(ratio * float64(8*n))
	if enc.Size() <= budget {
		return enc, nil
	}
	values, err := m.DecompressInto(nil, enc) // virtual: evaluates stored models
	if err != nil {
		return Encoded{}, err
	}
	return m.CompressRatioInto(dst, values, ratio)
}

// SumEncoded implements DirectSummer: constants contribute v·l; lines
// contribute the trapezoid (first+last)/2·l.
func (m *Modelar) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != m.Name() {
		return 0, ErrCodecMismatch
	}
	data := enc.Data
	count, c, err := readCount(data)
	if err != nil {
		return 0, err
	}
	data = data[c:]
	var sum float64
	var seen uint64
	for seen < count {
		if len(data) < 1 {
			return 0, ErrCorrupt
		}
		kind := data[0]
		data = data[1:]
		l, c := binary.Uvarint(data)
		if c <= 0 || l == 0 {
			return 0, ErrCorrupt
		}
		data = data[c:]
		// A forged length past the count: DecompressInto stops mid-model.
		full := l
		l = min(l, count-seen)
		switch kind {
		case modelConst:
			if len(data) < 8 {
				return 0, ErrCorrupt
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			sum += v * float64(l)
		case modelLinear:
			if len(data) < 16 {
				return 0, ErrCorrupt
			}
			first := math.Float64frombits(binary.LittleEndian.Uint64(data))
			last := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			data = data[16:]
			// The end DecompressInto reaches: a one-point line is its first
			// value, a truncated one stops short of its last.
			if l == 1 {
				last = first
			} else if l < full {
				last = first + float64(l-1)/float64(full-1)*(last-first)
			}
			sum += (first + last) / 2 * float64(l)
		default:
			return 0, ErrCorrupt
		}
		seen += l
	}
	return sum, nil
}
