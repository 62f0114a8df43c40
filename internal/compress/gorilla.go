package compress

import (
	"math"
	"math/bits"

	"repro/internal/bitio"
)

// Gorilla implements the XOR-based floating-point compression from
// Facebook's Gorilla time-series database (Pelkonen et al., VLDB 2015).
// Each value is XORed with its predecessor; runs of identical leading and
// trailing zero-bit windows are exploited to store only the meaningful
// bits. Decompression is relatively expensive (bit-serial), which is the
// property behind the gorilla_* pairs exceeding the storage budget in the
// paper's Fig 14.
//
// Layout: uvarint n | first value 64b | per value: control bits per the
// Gorilla scheme.
type Gorilla struct{}

// NewGorilla returns the Gorilla codec.
func NewGorilla() *Gorilla { return &Gorilla{} }

// Name implements Codec.
func (*Gorilla) Name() string { return "gorilla" }

// CompressInto implements Codec.
func (*Gorilla) CompressInto(dst []byte, values []float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	var w bitio.Writer
	w.ResetBuf(putUvarint(dst[:0], uint64(len(values))))
	prev := math.Float64bits(values[0])
	w.WriteUint64(prev)
	prevLeading, prevTrailing := -1, -1
	for _, v := range values[1:] {
		cur := math.Float64bits(v)
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
			leading = 31 // 5-bit field
		}
		if prevLeading >= 0 && leading >= prevLeading && trailing >= prevTrailing {
			// Control bit 0: meaningful bits fit the previous window.
			w.WriteBit(false)
			meaningful := 64 - prevLeading - prevTrailing
			w.WriteBits(xor>>uint(prevTrailing), uint(meaningful))
		} else {
			// Control bit 1: new window. 5 bits leading zeros, 6 bits
			// meaningful length.
			w.WriteBit(true)
			meaningful := 64 - leading - trailing
			w.WriteBits(uint64(leading), 5)
			// A full 64-bit window is stored as 0 in the 6-bit length
			// field, per the original Gorilla convention.
			w.WriteBits(uint64(meaningful&63), 6)
			w.WriteBits(xor>>uint(trailing), uint(meaningful))
			prevLeading, prevTrailing = leading, trailing
		}
	}
	return Encoded{Codec: "gorilla", Data: w.Bytes(), N: len(values)}, nil
}

// DecompressInto implements Codec.
func (g *Gorilla) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != g.Name() {
		return nil, ErrCodecMismatch
	}
	count, n, err := readCount(enc.Data)
	if err != nil {
		return nil, err
	}
	var r bitio.Reader
	r.Reset(enc.Data[n:])
	if uint64(cap(dst)) < count {
		dst = make([]float64, 0, count)
	}
	out := dst[:0]
	prev, err := r.ReadUint64()
	if err != nil {
		return nil, ErrCorrupt
	}
	out = append(out, math.Float64frombits(prev))
	prevLeading, prevTrailing := 0, 0
	haveWindow := false
	for uint64(len(out)) < count {
		changed, err := r.ReadBit()
		if err != nil {
			return nil, ErrCorrupt
		}
		if !changed {
			out = append(out, math.Float64frombits(prev))
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
		out = append(out, math.Float64frombits(prev))
	}
	return out, nil
}
