// Package bitio provides bit-granular readers and writers over byte slices.
// It is the shared substrate for the bit-packed codecs (Gorilla, Chimp,
// Sprintz, BUFF) in internal/compress; ReadUvarint is the canonical varint
// reader behind the store and session formats.
package bitio

import (
	"encoding/binary"
	"errors"
)

// ErrShortRead is returned when a Reader runs out of bits.
var ErrShortRead = errors.New("bitio: not enough bits")

// Writer accumulates bits most-significant-bit first into an internal buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	bits uint8 // number of valid bits in the partial last byte [0,8)
}

// WriteBit appends one bit.
func (w *Writer) WriteBit(bit bool) {
	if w.bits == 0 {
		w.buf = append(w.buf, 0)
	}
	if bit {
		w.buf[len(w.buf)-1] |= 1 << (7 - w.bits)
	}
	w.bits = (w.bits + 1) & 7
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0,64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	for n > 0 {
		if w.bits == 0 {
			w.buf = append(w.buf, 0)
		}
		free := uint(8 - w.bits)
		take := n
		if take > free {
			take = free
		}
		chunk := byte(v >> (n - take))
		w.buf[len(w.buf)-1] |= chunk << (free - take)
		w.bits = (w.bits + uint8(take)) & 7
		n -= take
	}
}

// WriteUint64 appends all 64 bits of v.
func (w *Writer) WriteUint64(v uint64) { w.WriteBits(v, 64) }

// Bytes returns the accumulated buffer. The final partial byte, if any, is
// zero-padded. The returned slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// ResetBuf makes the writer continue appending to buf, keeping buf's
// existing (byte-aligned) content as a prefix. It is the zero-allocation
// entry point for codecs that build a header with byte-level appends and
// then switch to bit-level writes over the same caller-owned buffer: the
// final Bytes() is header plus bitstream with no join copy. The writer
// takes ownership of buf's backing array until Bytes() is taken.
func (w *Writer) ResetBuf(buf []byte) {
	w.buf = buf
	w.bits = 0
}

// Reader consumes bits most-significant-bit first from a byte slice. The
// cursor is one bit offset: byte position off>>3, bit off&7 within it.
type Reader struct {
	buf []byte
	off uint // bits consumed
	end uint // 8*len(buf); a field because ReadBits has no inlining budget left to compute it
	// tail is the last eight bytes of buf as one big-endian word (a shorter
	// buf right-aligned), loaded once by Reset, so the reads that reach into
	// the last 64 bits need no byte loop and no load past the end.
	tail uint64
}

// NewReader wraps data without copying.
func NewReader(data []byte) *Reader {
	r := new(Reader)
	r.Reset(data)
	return r
}

// Reset rewinds the reader onto data without copying, so one stack- or
// struct-resident Reader can serve many decodes allocation-free.
func (r *Reader) Reset(data []byte) {
	r.buf, r.off, r.end, r.tail = data, 0, 8*uint(len(data)), 0
	for _, b := range data[max(0, len(data)-8):] {
		r.tail = r.tail<<8 | uint64(b)
	}
}

// ReadBit consumes a single bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.off >= r.end {
		return false, ErrShortRead
	}
	bit := r.buf[r.off>>3]<<(r.off&7)&0x80 != 0
	r.off++
	return bit, nil
}

// ReadBits consumes n bits (n in [0,64]) and returns them right-aligned. A
// read past the end consumes what is left and returns ErrShortRead.
//
// One load serves every width at every bit offset: while more than 64 bits
// remain, nine bytes are in bounds, and the eight-byte big-endian word at
// the cursor plus the byte after it hold bits s..s+64; the last 64 bits come
// from the tail word. The body is loop- and call-free so that it stays
// inside the compiler's inlining budget (cost 79 of 80 with go1.24;
// TestReadBitsInlines) and the decoders pay no call per field.
func (r *Reader) ReadBits(n uint) (v uint64, err error) {
	// s is the cursor's distance into the last 64 bits. It wraps past 1<<63
	// exactly when more than 64 bits remain; a cursor a caller pushed past
	// the end with n > 64 lands in between and reads as short.
	s := r.off + 64 - r.end
	if s >= 1<<63 {
		b := r.buf[r.off>>3:]
		s = r.off & 7
		v = binary.BigEndian.Uint64(b)<<s | uint64(b[8])>>(8-s)
	} else if s+n <= 64 {
		v = r.tail << s
	} else {
		r.off = r.end
		return 0, ErrShortRead
	}
	r.off += n
	return v >> (64 - n), nil
}

// ReadUint64 consumes 64 bits.
func (r *Reader) ReadUint64() (uint64, error) { return r.ReadBits(64) }

// ZigZag encodes a signed integer so that small magnitudes (positive or
// negative) map to small unsigned values, as used by Sprintz delta coding.
func ZigZag(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}
