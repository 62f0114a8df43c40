package bitio

import (
	"encoding/binary"
	"errors"
	"io"
)

// errOverlongVarint is ReadUvarint's error for an encoding longer than the
// one binary.PutUvarint writes for its value, or one past 64 bits.
var errOverlongVarint = errors.New("bitio: overlong uvarint")

// ReadUvarint reads one uvarint from r, accepting only the encoding
// binary.PutUvarint writes (binary.ReadUvarint also takes zero-padded
// forms), so a persisted field that reads back re-encodes to the same
// bytes. A stream that ends inside the varint is io.ErrUnexpectedEOF; one
// that ends before it is io.EOF.
func ReadUvarint(r io.ByteReader) (uint64, error) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if (i > 0 && b == 0) || (i == binary.MaxVarintLen64-1 && b > 1) {
				return 0, errOverlongVarint
			}
			return v | uint64(b)<<(7*i), nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, errOverlongVarint
}
