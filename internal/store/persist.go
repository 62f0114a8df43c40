package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/bitio"
	"repro/internal/compress"
)

// Persistence for the compressed pool. Each segment in the framework is
// associated with metadata describing its compression configuration
// (paper §IV-C), and the offline mode's whole purpose is to hold data for
// later offloading — so the pool must be serializable: spilling to local
// disk, shipping over a restored link, or surviving a device restart.
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

// WriteTo serializes every pool entry (sorted by id) to w and returns the
// byte count. An entry's Sketch is engine working state and is not persisted.
func (p *Pool) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	count := func(n int, err error) error {
		written += int64(n)
		return err
	}
	if err := count(bw.Write(persistMagic[:])); err != nil {
		return written, err
	}

	var entries []*Entry
	p.Each(func(e *Entry) { entries = append(entries, e) })
	sortEntriesByID(entries)

	var tmp [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		return count(bw.Write(tmp[:n]))
	}
	if err := writeUvarint(uint64(len(entries))); err != nil {
		return written, err
	}
	for _, e := range entries {
		if err := writeUvarint(e.ID); err != nil {
			return written, err
		}
		if err := writeUvarint(zigzag64(int64(e.Label))); err != nil {
			return written, err
		}
		flags := byte(0)
		if e.Lossless {
			flags |= 1
		}
		if err := count(bw.Write([]byte{flags})); err != nil {
			return written, err
		}
		if err := writeUvarint(uint64(e.Level)); err != nil {
			return written, err
		}
		if err := writeUvarint(uint64(len(e.Enc.Codec))); err != nil {
			return written, err
		}
		if err := count(bw.Write([]byte(e.Enc.Codec))); err != nil {
			return written, err
		}
		if err := writeUvarint(uint64(e.Enc.N)); err != nil {
			return written, err
		}
		if err := writeUvarint(uint64(len(e.Enc.Data))); err != nil {
			return written, err
		}
		if err := count(bw.Write(e.Enc.Data)); err != nil {
			return written, err
		}
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	return written, nil
}

// ReadPool deserializes a pool dump into a fresh Pool with the given
// policy (nil = LRU). Entries re-enter the policy in id order. Only what
// WriteTo writes is accepted (minimal varints, strictly increasing ids, no
// unknown flag bits), so a dump that reads back re-serializes to the same
// bytes; anything else is ErrBadFormat.
func ReadPool(r io.Reader, policy Policy) (*Pool, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, badFormat(err)
	}
	if magic != persistMagic {
		return nil, ErrBadFormat
	}
	count, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxSegments = 1 << 26 // sanity bound against corrupt counts
	if count > maxSegments {
		return nil, ErrBadFormat
	}
	pool := NewPool(policy)
	var prevID uint64
	for i := uint64(0); i < count; i++ {
		e := &Entry{}
		if e.ID, err = readUvarint(br); err != nil {
			return nil, err
		}
		if i > 0 && e.ID <= prevID {
			return nil, fmt.Errorf("%w: id %d after %d", ErrBadFormat, e.ID, prevID)
		}
		prevID = e.ID
		labelZZ, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		e.Label = int(unzigzag64(labelZZ))
		flags, err := br.ReadByte()
		if err != nil {
			return nil, badFormat(err)
		}
		if flags > 1 {
			return nil, fmt.Errorf("%w: flags %#x", ErrBadFormat, flags)
		}
		e.Lossless = flags == 1
		level, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		e.Level = int(level)
		codec, err := readString(br)
		if err != nil {
			return nil, err
		}
		n, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		dataLen, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		const maxSegmentBytes = 1 << 30
		// No encoder writes a segment of no points, and N divides in every
		// ratio computed from the entry.
		if n == 0 || dataLen > maxSegmentBytes {
			return nil, ErrBadFormat
		}
		data, err := readData(br, int(dataLen))
		if err != nil {
			return nil, err
		}
		e.Enc = compress.Encoded{Codec: codec, Data: data, N: int(n)}
		pool.Put(e)
	}
	return pool, nil
}

// readData reads an n-byte payload, growing the buffer only as bytes
// arrive: 64 KiB first, then never more than what has already been read,
// so a forged length costs at most about twice the bytes actually present
// (the rule transport.Reader.readPayload follows). A payload of at most
// 64 KiB, which is every segment an honest dump holds, is one exact-size
// allocation.
func readData(br *bufio.Reader, n int) ([]byte, error) {
	const firstStep = 64 << 10
	data := make([]byte, 0, min(n, firstStep))
	for len(data) < n {
		have := len(data)
		step := min(n-have, max(have, firstStep))
		data = slices.Grow(data, step)[:have+step]
		if _, err := io.ReadFull(br, data[have:]); err != nil {
			return nil, badFormat(err)
		}
	}
	return data, nil
}

func readString(br *bufio.Reader) (string, error) {
	l, err := readUvarint(br)
	if err != nil {
		return "", err
	}
	const maxName = 256
	if l > maxName {
		return "", ErrBadFormat
	}
	buf := make([]byte, l)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", badFormat(err)
	}
	return string(buf), nil
}

// readUvarint reads one minimally encoded uvarint (bitio.ReadUvarint);
// every failure is ErrBadFormat.
func readUvarint(br *bufio.Reader) (uint64, error) {
	v, err := bitio.ReadUvarint(br)
	if err != nil {
		return 0, badFormat(err)
	}
	return v, nil
}

func badFormat(err error) error { return fmt.Errorf("%w: %v", ErrBadFormat, err) }

func zigzag64(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag64(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func sortEntriesByID(entries []*Entry) {
	sort.Slice(entries, func(a, b int) bool { return entries[a].ID < entries[b].ID })
}
