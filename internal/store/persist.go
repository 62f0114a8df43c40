package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/bitio"
	"repro/internal/compress"
)

// Persistence for the stored segments. Each segment in the framework is
// associated with metadata describing its compression configuration
// (paper §IV-C), and the offline mode's whole purpose is to hold data for
// later offloading — so what the engine stores must be serializable:
// spilling to local disk, shipping over a restored link, or surviving a
// device restart (core.OfflineEngine.SaveTo and ResumeOfflineEngine).
//
// Format (little-endian, varint-framed):
//
//	magic "AEP1"
//	uvarint segmentCount
//	per segment:
//	  uvarint id | zigzag-varint label | 1B flags (bit0 lossless) |
//	  uvarint level | uvarint len(codec) | codec |
//	  uvarint N | uvarint len(data) | data

var persistMagic = [4]byte{'A', 'E', 'P', '1'}

// ErrBadFormat is returned when the input is not a valid pool dump.
var ErrBadFormat = errors.New("store: bad persistence format")

// WriteDump writes n entries to w in the pool dump format and returns the
// byte count; at(i) is the i-th, and the ids must increase with i, as
// ReadDump requires.
func WriteDump(w io.Writer, n int, at func(int) *Entry) (int64, error) {
	d := newDumpWriter(w, persistMagic)
	d.uvarint(uint64(n))
	for i := 0; i < n; i++ {
		e := at(i)
		flags := byte(0)
		if e.Lossless {
			flags = 1
		}
		d.uvarint(e.ID)
		d.uvarint(zigzag64(int64(e.Label)))
		d.write([]byte{flags})
		d.uvarint(uint64(e.Level))
		d.uvarint(uint64(len(e.Enc.Codec)))
		d.write([]byte(e.Enc.Codec))
		d.uvarint(uint64(e.Enc.N))
		d.uvarint(uint64(len(e.Enc.Data)))
		d.write(e.Enc.Data)
	}
	return d.flush()
}

// dumpWriter writes a persisted format through a bufio.Writer, whose first
// error sticks: every later write is a no-op, and flush reports the error
// with the bytes written before it.
type dumpWriter struct {
	bw      *bufio.Writer
	written int64
	tmp     [binary.MaxVarintLen64]byte
}

func newDumpWriter(w io.Writer, magic [4]byte) *dumpWriter {
	d := &dumpWriter{bw: bufio.NewWriter(w)}
	d.write(magic[:])
	return d
}

func (d *dumpWriter) write(b []byte) {
	n, _ := d.bw.Write(b)
	d.written += int64(n)
}

func (d *dumpWriter) uvarint(v uint64) { d.write(d.tmp[:binary.PutUvarint(d.tmp[:], v)]) }

func (d *dumpWriter) flush() (int64, error) {
	err := d.bw.Flush()
	return d.written, err
}

// ReadDump deserializes a pool dump, handing each entry to put in id
// order; an error from put ends the read and is returned. Only what
// WriteDump writes is accepted (minimal varints, strictly increasing ids,
// no unknown flag bits), so a dump that reads back re-serializes to the
// same bytes; anything else is ErrBadFormat.
func ReadDump(r io.Reader, put func(*Entry) error) error {
	const maxSegments = 1 << 26 // sanity bound against corrupt counts
	const maxSegmentBytes = 1 << 30
	d, count, err := newDumpReader(r, persistMagic, maxSegments)
	if err != nil {
		return err
	}
	var prevID uint64
	for i := uint64(0); i < count; i++ {
		id, label, flags, level := d.uvarint(), d.uvarint(), d.byte(), d.uvarint()
		codec, n, size := d.string(), d.uvarint(), d.uvarint()
		switch {
		case d.err != nil:
			return d.err
		// No encoder writes a segment of no points, and N divides in every
		// ratio computed from the entry; past MaxInt it would read back
		// negative, and a resumed engine's clock would run backwards.
		case i > 0 && id <= prevID, flags > 1, level > math.MaxInt32, n == 0, n > math.MaxInt, size > maxSegmentBytes:
			return fmt.Errorf("%w: segment %d: id %d after %d, flags %#x, level %d, %d points in %d bytes",
				ErrBadFormat, i, id, prevID, flags, level, n, size)
		}
		prevID = id
		data := d.data(int(size))
		if d.err != nil {
			return d.err
		}
		if err := put(&Entry{
			ID: id, Label: int(unzigzag64(label)), Lossless: flags == 1, Level: int32(level),
			Enc: compress.Encoded{Codec: codec, Data: data, N: int(n)},
		}); err != nil {
			return err
		}
	}
	return nil
}

// dumpReader reads a persisted format through a bufio.Reader. Its first
// failure sticks as an ErrBadFormat error and makes every later read a
// no-op that returns zero, so a parser reads a record and checks err once.
type dumpReader struct {
	br  *bufio.Reader
	err error
}

// newDumpReader checks r's magic and reads its record count, which must
// not exceed limit.
func newDumpReader(r io.Reader, magic [4]byte, limit uint64) (*dumpReader, uint64, error) {
	d := &dumpReader{br: bufio.NewReader(r)}
	var got [4]byte
	d.read(got[:])
	count := d.uvarint()
	switch {
	case d.err != nil:
		return nil, 0, d.err
	case got != magic || count > limit:
		return nil, 0, ErrBadFormat
	}
	return d, count, nil
}

func (d *dumpReader) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
}

func (d *dumpReader) read(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.br, p); err != nil {
		d.fail(err)
	}
}

func (d *dumpReader) byte() byte {
	var b [1]byte
	d.read(b[:])
	return b[0]
}

// uvarint reads one minimally encoded uvarint (bitio.ReadUvarint).
func (d *dumpReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := bitio.ReadUvarint(d.br)
	if err != nil {
		d.fail(err)
	}
	return v
}

// string reads a length-prefixed name of at most 256 bytes.
func (d *dumpReader) string() string {
	const maxName = 256
	l := d.uvarint()
	if l > maxName {
		d.fail(fmt.Errorf("name of %d bytes", l))
		return ""
	}
	buf := make([]byte, l)
	d.read(buf)
	return string(buf)
}

// data reads an n-byte payload, growing the buffer only as bytes arrive:
// 64 KiB first, then never more than what has already been read, so a
// forged length costs at most about twice the bytes actually present (the
// rule transport.Reader.readPayload follows). A payload of at most 64 KiB,
// which is every segment an honest dump holds, is one exact-size
// allocation.
func (d *dumpReader) data(n int) []byte {
	const firstStep = 64 << 10
	data := make([]byte, 0, min(n, firstStep))
	for d.err == nil && len(data) < n {
		have := len(data)
		step := min(n-have, max(have, firstStep))
		data = slices.Grow(data, step)[:have+step]
		d.read(data[have:])
	}
	return data
}

func zigzag64(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag64(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
