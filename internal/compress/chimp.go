package compress

import (
	"math"
	"math/bits"

	"repro/internal/bitio"
)

// Chimp implements the CHIMP floating-point compressor (Liakos et al.,
// VLDB 2022), the optimized Gorilla variant the paper cites in §III-A.
// Compared with Gorilla it uses two-bit flags and a quantized
// leading-zero code, repairing Gorilla's pathological cases where a small
// trailing-zero count forces wide meaningful-bit windows.
//
// Per-value flags:
//
//	00 — XOR is zero (value repeats)
//	01 — XOR has > threshold trailing zeros: 3-bit leading-zero code,
//	     6-bit center length, center bits
//	10 — reuse previous leading-zero count, write 64-lead significant bits
//	11 — new leading-zero code (3 bits), write 64-lead significant bits
//
// Layout: uvarint n | first value 64b | flagged stream.
type Chimp struct{}

// NewChimp returns the Chimp codec.
func NewChimp() *Chimp { return &Chimp{} }

// Name implements Codec.
func (*Chimp) Name() string { return "chimp" }

// chimpLeadingRound quantizes a leading-zero count to the CHIMP code table.
var chimpLeadingRound = [64]uint8{
	0, 0, 0, 0, 0, 0, 0, 0,
	1, 1, 1, 1, 2, 2, 2, 2,
	3, 3, 4, 4, 5, 5, 6, 6,
	7, 7, 7, 7, 7, 7, 7, 7,
	7, 7, 7, 7, 7, 7, 7, 7,
	7, 7, 7, 7, 7, 7, 7, 7,
	7, 7, 7, 7, 7, 7, 7, 7,
	7, 7, 7, 7, 7, 7, 7, 7,
}

// chimpLeadingValue maps a 3-bit code back to the leading-zero count.
var chimpLeadingValue = [8]int{0, 8, 12, 16, 18, 20, 22, 24}

const chimpTrailingThreshold = 6

// CompressInto implements Codec.
func (*Chimp) CompressInto(dst []byte, values []float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	var w bitio.Writer
	w.ResetBuf(putUvarint(dst[:0], uint64(len(values))))
	prev := math.Float64bits(values[0])
	w.WriteUint64(prev)
	prevLeadCode := -1
	for _, v := range values[1:] {
		cur := math.Float64bits(v)
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.WriteBits(0b00, 2)
			continue
		}
		leading := bits.LeadingZeros64(xor)
		trailing := bits.TrailingZeros64(xor)
		leadCode := int(chimpLeadingRound[leading])
		lead := chimpLeadingValue[leadCode]
		if trailing > chimpTrailingThreshold {
			center := 64 - lead - trailing
			w.WriteBits(0b01, 2)
			w.WriteBits(uint64(leadCode), 3)
			w.WriteBits(uint64(center), 6)
			w.WriteBits(xor>>uint(trailing), uint(center))
			prevLeadCode = -1 // flag 01 resets the reuse chain, per CHIMP
			continue
		}
		if leadCode == prevLeadCode {
			w.WriteBits(0b10, 2)
			w.WriteBits(xor, uint(64-lead))
		} else {
			w.WriteBits(0b11, 2)
			w.WriteBits(uint64(leadCode), 3)
			w.WriteBits(xor, uint(64-lead))
			prevLeadCode = leadCode
		}
	}
	return Encoded{Codec: "chimp", Data: w.Bytes(), N: len(values)}, nil
}

// DecompressInto implements Codec.
func (c *Chimp) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != c.Name() {
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
	prevLead := -1
	for uint64(len(out)) < count {
		flag, err := r.ReadBits(2)
		if err != nil {
			return nil, ErrCorrupt
		}
		switch flag {
		case 0b00:
			// repeat
		case 0b01:
			leadCode, err := r.ReadBits(3)
			if err != nil {
				return nil, ErrCorrupt
			}
			center, err := r.ReadBits(6)
			if err != nil {
				return nil, ErrCorrupt
			}
			lead := chimpLeadingValue[leadCode]
			if center == 0 || lead+int(center) > 64 {
				return nil, ErrCorrupt
			}
			trailing := 64 - lead - int(center)
			xor, err := r.ReadBits(uint(center))
			if err != nil {
				return nil, ErrCorrupt
			}
			prev ^= xor << uint(trailing)
			prevLead = -1
		case 0b10:
			if prevLead < 0 {
				return nil, ErrCorrupt
			}
			xor, err := r.ReadBits(uint(64 - prevLead))
			if err != nil {
				return nil, ErrCorrupt
			}
			prev ^= xor
		case 0b11:
			leadCode, err := r.ReadBits(3)
			if err != nil {
				return nil, ErrCorrupt
			}
			prevLead = chimpLeadingValue[leadCode]
			xor, err := r.ReadBits(uint(64 - prevLead))
			if err != nil {
				return nil, ErrCorrupt
			}
			prev ^= xor
		}
		out = append(out, math.Float64frombits(prev))
	}
	return out, nil
}
