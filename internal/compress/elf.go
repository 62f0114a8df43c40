package compress

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/bitio"
)

// Elf implements the erasing-based lossless floating-point compressor
// (Li et al., VLDB 2023), cited by the paper as the successor variation of
// BUFF (§III-A1). The key idea: a decimal value with d significant
// fractional digits only needs enough mantissa bits to distinguish it from
// its neighbours at that precision, so the trailing mantissa bits below
// that resolution can be *erased* (zeroed) before XOR chaining — turning
// long random mantissa tails into trailing zeros the XOR stage removes.
// Erasure is exactly invertible by re-rounding to the recorded decimal
// precision, so the codec is lossless for data quantized at the dataset
// precision (the same contract BUFF and Sprintz rely on).
//
// Layout: uvarint n | uvarint precision | first value 64b | per value:
// Gorilla-style XOR stream over the erased values.
type Elf struct {
	precision int
	scale     float64
}

// NewElf returns an Elf codec for data at the given decimal precision.
func NewElf(precision int) *Elf {
	if precision < 0 {
		precision = 0
	}
	return &Elf{precision: precision, scale: math.Pow10(precision)}
}

// Name implements Codec.
func (*Elf) Name() string { return "elf" }

// erasedBits returns how many trailing mantissa bits of v carry no
// information at the configured decimal precision, and the erased value.
func (e *Elf) erase(v float64) uint64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return math.Float64bits(v)
	}
	b := math.Float64bits(v)
	exp := int(b>>52&0x7FF) - 1023
	// The value's quantum at this precision is 10^-p. Mantissa bit i
	// (from bit 0) weighs 2^(exp-52+i); bits weighing less than half the
	// quantum cannot change the rounded decimal and can be zeroed.
	// Solve 2^(exp-52+i) < 10^-p / 2  →  i < 52 - exp - p*log2(10) - 1.
	erasable := 52 - exp - int(math.Ceil(float64(e.precision)*math.Log2(10))) - 1
	if erasable <= 0 {
		return b
	}
	if erasable > 52 {
		erasable = 52
	}
	mask := ^uint64(0) << uint(erasable)
	eb := b & mask
	// Verify invertibility: the erased value must round back to v at the
	// dataset precision; back off bit by bit otherwise.
	for erasable > 0 {
		ev := math.Float64frombits(eb)
		if math.Round(ev*e.scale)/e.scale == v {
			return eb
		}
		erasable--
		mask = ^uint64(0) << uint(erasable)
		eb = b & mask
	}
	return b
}

// restore inverts erase by re-rounding to the decimal precision.
func (e *Elf) restore(b uint64) float64 {
	v := math.Float64frombits(b)
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	return math.Round(v*e.scale) / e.scale
}

// CompressInto implements Codec.
func (e *Elf) CompressInto(dst []byte, values []float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	out := putUvarint(dst[:0], uint64(len(values)))
	out = putUvarint(out, uint64(e.precision))
	var w bitio.Writer
	w.ResetBuf(out)
	prev := e.erase(values[0])
	w.WriteUint64(prev)
	prevLeading, prevTrailing := -1, -1
	for _, v := range values[1:] {
		cur := e.erase(v)
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.WriteBit(false)
			continue
		}
		w.WriteBit(true)
		leading := bits.LeadingZeros64(xor)
		trailing := bits.TrailingZeros64(xor)
		if leading > 31 {
			leading = 31
		}
		if prevLeading >= 0 && leading >= prevLeading && trailing >= prevTrailing {
			w.WriteBit(false)
			meaningful := 64 - prevLeading - prevTrailing
			w.WriteBits(xor>>uint(prevTrailing), uint(meaningful))
		} else {
			w.WriteBit(true)
			meaningful := 64 - leading - trailing
			w.WriteBits(uint64(leading), 5)
			w.WriteBits(uint64(meaningful&63), 6)
			w.WriteBits(xor>>uint(trailing), uint(meaningful))
			prevLeading, prevTrailing = leading, trailing
		}
	}
	return Encoded{Codec: e.Name(), Data: w.Bytes(), N: len(values)}, nil
}

// DecompressInto implements Codec.
func (e *Elf) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != e.Name() {
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
	dec := Elf{precision: int(prec), scale: math.Pow10(int(prec))}

	var r bitio.Reader
	r.Reset(data)
	out := growFloats(dst, int(count))
	prev, err := r.ReadUint64()
	if err != nil {
		return nil, ErrCorrupt
	}
	out = append(out, dec.restore(prev))
	prevLeading, prevTrailing := 0, 0
	haveWindow := false
	for uint64(len(out)) < count {
		changed, err := r.ReadBit()
		if err != nil {
			return nil, ErrCorrupt
		}
		if !changed {
			out = append(out, dec.restore(prev))
			continue
		}
		newWindow, err := r.ReadBit()
		if err != nil {
			return nil, ErrCorrupt
		}
		if !newWindow && !haveWindow {
			return nil, ErrCorrupt
		}
		if newWindow {
			lead, err := r.ReadBits(5)
			if err != nil {
				return nil, ErrCorrupt
			}
			mlen, err := r.ReadBits(6)
			if err != nil {
				return nil, ErrCorrupt
			}
			if mlen == 0 {
				mlen = 64
			}
			if int(lead)+int(mlen) > 64 {
				return nil, ErrCorrupt
			}
			prevLeading = int(lead)
			prevTrailing = 64 - int(lead) - int(mlen)
			haveWindow = true
		}
		meaningful := 64 - prevLeading - prevTrailing
		xor, err := r.ReadBits(uint(meaningful))
		if err != nil {
			return nil, ErrCorrupt
		}
		prev ^= xor << uint(prevTrailing)
		out = append(out, dec.restore(prev))
	}
	return out, nil
}
