package compress

import (
	"encoding/binary"
)

// Snappy is a from-scratch implementation of the Snappy block format: an
// LZ77 byte compressor optimized for speed over ratio. The paper includes
// it as a fast byte-compression candidate (Fig 2/3, Fig 13).
//
// Block format: a uvarint preamble holding the decoded length, followed by
// a sequence of elements. The low two bits of each element's tag byte
// select literal (00), copy with 1-byte offset (01), or copy with 2-byte
// offset (10).
type Snappy struct{}

// NewSnappy returns the Snappy codec.
func NewSnappy() *Snappy { return &Snappy{} }

// Name implements Codec.
func (*Snappy) Name() string { return "snappy" }

const (
	snapTagLiteral = 0x00
	snapTagCopy1   = 0x01
	snapTagCopy2   = 0x02

	snapHashBits  = 14
	snapTableSize = 1 << snapHashBits
	snapMinMatch  = 4
)

func snapHash(u uint32) uint32 {
	return (u * 0x1e35a7bd) >> (32 - snapHashBits)
}

// CompressInto implements Codec.
func (*Snappy) CompressInto(dst []byte, values []float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	raw := byteScratch.Get()
	*raw = appendFloats((*raw)[:0], values)
	out := snappyEncode(dst, *raw)
	byteScratch.Put(raw)
	return Encoded{Codec: "snappy", Data: out, N: len(values)}, nil
}

// DecompressInto implements Codec.
func (s *Snappy) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != s.Name() {
		return nil, ErrCodecMismatch
	}
	raw := byteScratch.Get()
	defer byteScratch.Put(raw)
	b, err := snappyDecode((*raw)[:0], enc.Data)
	if err != nil {
		return nil, err
	}
	*raw = b
	return decodeFloats(dst, b)
}

// snappyEncode appends the block encoding of src to dst[:0].
func snappyEncode(dst, src []byte) []byte {
	dst = putUvarint(dst[:0], uint64(len(src)))
	var table [snapTableSize]int32
	for i := range table {
		table[i] = -1
	}
	s := 0        // next byte to consider
	litStart := 0 // start of pending literal run
	for s+snapMinMatch <= len(src) {
		cur := binary.LittleEndian.Uint32(src[s:])
		h := snapHash(cur)
		cand := table[h]
		table[h] = int32(s)
		if cand >= 0 && s-int(cand) <= 0xFFFF && binary.LittleEndian.Uint32(src[cand:]) == cur {
			// Emit the pending literal, then extend and emit the match.
			dst = snappyEmitLiteral(dst, src[litStart:s])
			matchLen := snapMinMatch
			for s+matchLen < len(src) && src[int(cand)+matchLen] == src[s+matchLen] {
				matchLen++
			}
			dst = snappyEmitCopy(dst, s-int(cand), matchLen)
			s += matchLen
			litStart = s
			continue
		}
		s++
	}
	dst = snappyEmitLiteral(dst, src[litStart:])
	return dst
}

func snappyEmitLiteral(dst, lit []byte) []byte {
	if len(lit) == 0 {
		return dst
	}
	n := len(lit) - 1
	switch {
	case n < 60:
		dst = append(dst, byte(n)<<2|snapTagLiteral)
	case n < 1<<8:
		dst = append(dst, 60<<2|snapTagLiteral, byte(n))
	case n < 1<<16:
		dst = append(dst, 61<<2|snapTagLiteral, byte(n), byte(n>>8))
	default:
		dst = append(dst, 62<<2|snapTagLiteral, byte(n), byte(n>>8), byte(n>>16))
	}
	return append(dst, lit...)
}

func snappyEmitCopy(dst []byte, offset, length int) []byte {
	// Long matches are split into chunks of at most 64 bytes.
	for length >= 68 {
		dst = append(dst, 63<<2|snapTagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	if length > 64 {
		// Emit a 60-byte copy so the remainder is >= 4.
		dst = append(dst, 59<<2|snapTagCopy2, byte(offset), byte(offset>>8))
		length -= 60
	}
	if length >= 4 && length <= 11 && offset < 1<<11 {
		dst = append(dst, byte(offset>>8)<<5|byte(length-4)<<2|snapTagCopy1, byte(offset))
		return dst
	}
	return append(dst, byte(length-1)<<2|snapTagCopy2, byte(offset), byte(offset>>8))
}

// snappyDecode appends the decoded block to dst, which must be empty.
func snappyDecode(dst, data []byte) ([]byte, error) {
	declen, n := binary.Uvarint(data)
	// 8 bytes per point under the same allocation bound as readCount.
	if n <= 0 || declen > 8*maxDecodePoints {
		return nil, ErrCorrupt
	}
	src := data[n:]
	if uint64(cap(dst)) < declen {
		dst = make([]byte, 0, declen)
	}
	for len(src) > 0 {
		tag := src[0]
		switch tag & 0x03 {
		case snapTagLiteral:
			litLen := int(tag >> 2)
			hdr := 1
			switch {
			case litLen < 60:
				// length encoded in tag
			case litLen == 60:
				if len(src) < 2 {
					return nil, ErrCorrupt
				}
				litLen = int(src[1])
				hdr = 2
			case litLen == 61:
				if len(src) < 3 {
					return nil, ErrCorrupt
				}
				litLen = int(src[1]) | int(src[2])<<8
				hdr = 3
			case litLen == 62:
				if len(src) < 4 {
					return nil, ErrCorrupt
				}
				litLen = int(src[1]) | int(src[2])<<8 | int(src[3])<<16
				hdr = 4
			default:
				return nil, ErrCorrupt
			}
			litLen++
			if len(src) < hdr+litLen {
				return nil, ErrCorrupt
			}
			dst = append(dst, src[hdr:hdr+litLen]...)
			src = src[hdr+litLen:]
		case snapTagCopy1:
			if len(src) < 2 {
				return nil, ErrCorrupt
			}
			length := int(tag>>2&0x07) + 4
			offset := int(tag>>5)<<8 | int(src[1])
			src = src[2:]
			if err := snappyCopy(&dst, offset, length); err != nil {
				return nil, err
			}
		case snapTagCopy2:
			if len(src) < 3 {
				return nil, ErrCorrupt
			}
			length := int(tag>>2) + 1
			offset := int(src[1]) | int(src[2])<<8
			src = src[3:]
			if err := snappyCopy(&dst, offset, length); err != nil {
				return nil, err
			}
		default:
			return nil, ErrCorrupt
		}
	}
	if uint64(len(dst)) != declen {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// snappyCopy appends length bytes starting offset bytes back, one at a time
// because matches may overlap their own output.
func snappyCopy(dst *[]byte, offset, length int) error {
	d := *dst
	pos := len(d) - offset
	if pos < 0 || offset == 0 {
		return ErrCorrupt
	}
	for i := 0; i < length; i++ {
		d = append(d, d[pos+i])
	}
	*dst = d
	return nil
}
