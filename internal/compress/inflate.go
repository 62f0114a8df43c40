package compress

import (
	"encoding/binary"
	"errors"
	"hash/adler32"
	"hash/crc32"
	"math/bits"

	"repro/internal/freelist"
)

// An in-house inflate (RFC 1951) behind the gzip (RFC 1952) and zlib
// (RFC 1950) codecs. It decodes one whole payload into one buffer and, once
// warm, allocates nothing: back-references index the output itself, so there
// is no window ring, and the Huffman tables are fixed-size arrays rebuilt in
// place for each block, where compress/flate's streaming reader allocates
// link tables for every dynamic block. Encoding runs compress/flate's
// writer inside the framing flate.go writes.
//
// What it accepts, compress/zlib's and compress/gzip's readers accept too,
// with identical bytes (FuzzInflateDifferential). It accepts everything
// our writers emit and rejects a little more than the standard library: a
// preset dictionary, any optional gzip header field, a second gzip member
// and bytes after the trailer.

var (
	errTruncated  = errors.New("truncated stream")
	errHeader     = errors.New("invalid header")
	errDictionary = errors.New("preset dictionary")
	errHeaderExt  = errors.New("optional gzip header fields")
	errTrailing   = errors.New("bytes after the trailer")
	errChecksum   = errors.New("checksum mismatch")
	errBlockType  = errors.New("reserved block type")
	errStoredLen  = errors.New("stored block length mismatch")
	errCodeCounts = errors.New("too many literal/length or distance codes")
	errOverfull   = errors.New("over-subscribed Huffman code")
	errIncomplete = errors.New("incomplete Huffman code")
	errRepeat     = errors.New("code length repeat out of range")
	errSymbol     = errors.New("invalid Huffman symbol")
	errDistance   = errors.New("back-reference before the output start")
	errTooLarge   = errors.New("inflates past the decode bound")
)

const (
	rootBits    = 9  // codes up to this long decode in one table lookup
	maxCodeBits = 15 // RFC 1951's longest code
)

// huffman is one canonical prefix code.
type huffman struct {
	// root maps the next rootBits input bits to symbol<<4 | code length,
	// or to 0 where the code is longer than rootBits (or absent).
	root  [1 << rootBits]uint16
	count [maxCodeBits + 1]uint16 // codes of each length
	sym   [288]uint16             // symbols in code order
	// first and index are canonical decoding's state after rootBits bits:
	// the first code of length rootBits+1 and the number of shorter codes.
	first, index int
}

// build makes h the canonical code of lengths. Like compress/flate it
// accepts only a complete code, an empty one (which fails once used), and
// a single one-bit code (whose other bit fails once read).
func (h *huffman) build(lengths []uint8) error {
	h.count = [maxCodeBits + 1]uint16{}
	for _, l := range lengths {
		h.count[l]++
	}
	h.count[0] = 0
	left, longest := 1, 0 // codes of the current length still unassigned
	for l := 1; l <= maxCodeBits; l++ {
		left = left<<1 - int(h.count[l])
		if left < 0 {
			return errOverfull
		}
		if h.count[l] != 0 {
			longest = l
		}
	}
	if left != 0 && longest != 0 && (longest != 1 || h.count[1] != 1) {
		return errIncomplete
	}
	var offs [maxCodeBits + 1]uint16
	for l := 1; l < maxCodeBits; l++ {
		offs[l+1] = offs[l] + h.count[l]
	}
	for s, l := range lengths {
		if l != 0 {
			h.sym[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	// Codes are read most significant bit first from the low end of the
	// bit buffer, so a code of length l belongs at its bits reversed in the
	// table's first 1<<l entries, and at every entry that extends it with
	// higher bits: each length's entries are doubled into the next.
	h.root[0], h.root[1] = 0, 0
	code, index := 0, 0
	for l := 1; l <= rootBits; l++ {
		for range h.count[l] {
			h.root[bits.Reverse16(uint16(code))>>(16-l)] = h.sym[index]<<4 | uint16(l)
			code++
			index++
		}
		code <<= 1
		if l < rootBits {
			copy(h.root[1<<l:], h.root[:1<<l])
		}
	}
	h.first, h.index = code, index
	return nil
}

// fixedLit and fixedDist are RFC 1951 §3.2.6's fixed codes. Literal/length
// symbols 286 and 287 and distance symbols 30 and 31 have codes but are
// rejected once decoded, as compress/flate rejects them.
var fixedLit, fixedDist huffman

func init() {
	var l [288]uint8
	for i := range l {
		switch {
		case i < 144:
			l[i] = 8
		case i < 256:
			l[i] = 9
		case i < 280:
			l[i] = 7
		default:
			l[i] = 8
		}
	}
	_ = fixedLit.build(l[:]) // complete
	for i := range 32 {
		l[i] = 5
	}
	_ = fixedDist.build(l[:32]) // complete
}

// Base values and extra-bit counts of the length symbols 257..285 and the
// distance symbols 0..29.
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// clOrder is the order code length code lengths are sent in.
	clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// inflater is one decode's state; the tables make it a few KiB, so it is
// pooled rather than held on the caller's stack.
type inflater struct {
	in    []byte
	pos   int    // next byte of in to enter the bit buffer
	bits  uint64 // unread input bits, next one lowest
	nb    uint   // valid bits in bits
	out   []byte
	limit int // the most output bytes accepted

	lit, dist, clen huffman
	lengths         [286 + 30]uint8
}

// inflaters: an idle inflater holds no slice, so the size cap never drops one.
var inflaters = freelist.New(func(*inflater) int { return 0 })

// inflate decodes the DEFLATE stream at the start of in into out[:0] and
// returns the output and the number of input bytes the stream took. Output
// past limit bytes fails; out grows by the rule room documents.
func inflate(out, in []byte, limit int) ([]byte, int, error) {
	f := inflaters.Get()
	f.in, f.pos, f.bits, f.nb, f.out, f.limit = in, 0, 0, 0, out[:0], limit
	err := f.blocks()
	out, used := f.out, f.pos-int(f.nb/8) // whole bytes still buffered were not used
	f.in, f.out = nil, nil                // an idle inflater must not pin the caller's bytes
	inflaters.Put(f)
	return out, used, err
}

// refill tops the bit buffer up to at least 56 bits, or to the end of in.
// Bits above nb are zero or already hold the next input bits, which the
// next refill ORs in again unchanged.
func (f *inflater) refill() {
	if f.pos+8 <= len(f.in) {
		f.bits |= binary.LittleEndian.Uint64(f.in[f.pos:]) << f.nb
		f.pos += int(63-f.nb) >> 3
		f.nb |= 56
		return
	}
	for f.nb <= 56 && f.pos < len(f.in) {
		f.bits |= uint64(f.in[f.pos]) << f.nb
		f.pos++
		f.nb += 8
	}
}

// take reads an n-bit little-endian field, n <= 16.
func (f *inflater) take(n uint) (int, error) {
	if f.nb < n {
		if f.refill(); f.nb < n {
			return 0, errTruncated
		}
	}
	v := int(f.bits & (1<<n - 1))
	f.bits >>= n
	f.nb -= n
	return v, nil
}

// decode reads one symbol of h.
func (f *inflater) decode(h *huffman) (int, error) {
	if f.nb < maxCodeBits {
		f.refill()
	}
	if e := h.root[f.bits&(1<<rootBits-1)]; e != 0 {
		n := uint(e & 15)
		if n > f.nb {
			return 0, errTruncated
		}
		f.bits >>= n
		f.nb -= n
		return int(e >> 4), nil
	}
	// A code longer than rootBits: carry canonical decoding on from the
	// state after rootBits bits, one bit at a time.
	code := int(bits.Reverse16(uint16(f.bits)) >> (16 - rootBits))
	first, index := h.first, h.index
	for l := uint(rootBits + 1); l <= maxCodeBits; l++ {
		code = code<<1 | int(f.bits>>(l-1)&1)
		count := int(h.count[l])
		if code < first+count {
			if l > f.nb {
				return 0, errTruncated
			}
			f.bits >>= l
			f.nb -= l
			return int(h.sym[index+code-first]), nil
		}
		index += count
		first = (first + count) << 1
	}
	return 0, errSymbol
}

// room makes space for n more output bytes. Output past limit fails. A
// full buffer grows to the smallest of the capacities (limit+1)>>2k that
// holds the output and at least doubles the buffer, never to a multiple of
// whatever capacity the pooled scratch happened to arrive with: the
// buffers a rejected payload leaves behind then sum to under 4/3 of
// limit+1 from any start.
func (f *inflater) room(n int) error {
	need := len(f.out) + n
	if need > f.limit {
		return errTooLarge
	}
	if need > cap(f.out) {
		next := f.limit + 1
		for next>>2 >= max(2*cap(f.out), 512, need) {
			next >>= 2
		}
		f.out = append(make([]byte, 0, next), f.out...)
	}
	return nil
}

// blocks decodes blocks up to and including the final one.
func (f *inflater) blocks() error {
	for {
		hdr, err := f.take(3)
		if err != nil {
			return err
		}
		switch hdr >> 1 {
		case 0:
			err = f.stored()
		case 1:
			err = f.codes(&fixedLit, &fixedDist)
		case 2:
			if err = f.dynamic(); err == nil {
				err = f.codes(&f.lit, &f.dist)
			}
		default:
			err = errBlockType
		}
		if err != nil || hdr&1 == 1 {
			return err
		}
	}
}

// stored copies an uncompressed block, which starts at a byte boundary.
func (f *inflater) stored() error {
	f.pos -= int(f.nb / 8) // whole buffered bytes go back to the input
	f.bits, f.nb = 0, 0
	if len(f.in)-f.pos < 4 {
		return errTruncated
	}
	n := int(binary.LittleEndian.Uint16(f.in[f.pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(f.in[f.pos+2:]) {
		return errStoredLen
	}
	f.pos += 4
	if len(f.in)-f.pos < n {
		return errTruncated
	}
	if err := f.room(n); err != nil {
		return err
	}
	f.out = append(f.out, f.in[f.pos:f.pos+n]...)
	f.pos += n
	return nil
}

// dynamic reads a block's code definitions (RFC 1951 §3.2.7) into f.lit
// and f.dist.
func (f *inflater) dynamic() error {
	h, err := f.take(14)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := h&31+257, h>>5&31+1, h>>10+4
	if nlit > 286 || ndist > 30 {
		return errCodeCounts
	}
	var cl [19]uint8
	for _, s := range clOrder[:nclen] {
		v, err := f.take(3)
		if err != nil {
			return err
		}
		cl[s] = uint8(v)
	}
	if err := f.clen.build(cl[:]); err != nil {
		return err
	}
	lengths := f.lengths[:nlit+ndist]
	for i := 0; i < len(lengths); {
		sym, err := f.decode(&f.clen)
		if err != nil {
			return err
		}
		if sym < 16 {
			lengths[i] = uint8(sym)
			i++
			continue
		}
		var l uint8
		var rep int
		switch sym {
		case 16: // the previous length 3-6 times
			if i == 0 {
				return errRepeat
			}
			l = lengths[i-1]
			rep, err = f.take(2)
			rep += 3
		case 17: // 3-10 zeros
			rep, err = f.take(3)
			rep += 3
		default: // 11-138 zeros
			rep, err = f.take(7)
			rep += 11
		}
		if err != nil {
			return err
		}
		if i+rep > len(lengths) {
			return errRepeat
		}
		for range rep {
			lengths[i] = l
			i++
		}
	}
	if err := f.lit.build(lengths[:nlit]); err != nil {
		return err
	}
	return f.dist.build(lengths[nlit:])
}

// codes decodes a compressed block's data up to its end-of-block symbol.
func (f *inflater) codes(lit, dist *huffman) error {
	for {
		sym, err := f.decode(lit)
		if err != nil {
			return err
		}
		if sym < 256 {
			if len(f.out) >= min(cap(f.out), f.limit) {
				if err := f.room(1); err != nil {
					return err
				}
			}
			f.out = append(f.out, byte(sym))
			continue
		}
		if sym == 256 {
			return nil
		}
		if sym -= 257; sym >= len(lenBase) {
			return errSymbol
		}
		extra, err := f.take(uint(lenExtra[sym]))
		if err != nil {
			return err
		}
		length := int(lenBase[sym]) + extra
		if sym, err = f.decode(dist); err != nil {
			return err
		}
		if sym >= len(distBase) {
			return errSymbol
		}
		if extra, err = f.take(uint(distExtra[sym])); err != nil {
			return err
		}
		d := int(distBase[sym]) + extra
		if d > len(f.out) {
			return errDistance
		}
		if err := f.room(length); err != nil {
			return err
		}
		// Copy forward from d bytes back; a source that overlaps the copy
		// repeats with period d, so each pass doubles what one copy moves.
		o := len(f.out)
		f.out = f.out[:o+length]
		for s := o - d; o < len(f.out); {
			o += copy(f.out[o:], f.out[s:o])
		}
	}
}

// unzlib decodes one zlib stream, all of src, into out[:0].
func unzlib(out, src []byte, limit int) ([]byte, error) {
	if len(src) < 2 {
		return out[:0], errTruncated
	}
	// Method 8 (deflate), a window of at most 32 KiB, a valid check.
	if src[0]&0x0f != 8 || src[0]>>4 > 7 || binary.BigEndian.Uint16(src)%31 != 0 {
		return out[:0], errHeader
	}
	if src[1]&0x20 != 0 {
		return out[:0], errDictionary
	}
	out, n, err := inflate(out, src[2:], limit)
	if err != nil {
		return out, err
	}
	switch tail := src[2+n:]; {
	case len(tail) < 4:
		return out, errTruncated
	case len(tail) > 4:
		return out, errTrailing
	case binary.BigEndian.Uint32(tail) != adler32.Checksum(out):
		return out, errChecksum
	}
	return out, nil
}

// gunzip decodes one gzip member, all of src, into out[:0]. The header
// may carry no optional field: our writer sets none.
func gunzip(out, src []byte, limit int) ([]byte, error) {
	if len(src) < 10 {
		return out[:0], errTruncated
	}
	if src[0] != 0x1f || src[1] != 0x8b || src[2] != 8 {
		return out[:0], errHeader
	}
	if src[3] != 0 {
		return out[:0], errHeaderExt
	}
	out, n, err := inflate(out, src[10:], limit)
	if err != nil {
		return out, err
	}
	le := binary.LittleEndian
	switch tail := src[10+n:]; {
	case len(tail) < 8:
		return out, errTruncated
	case len(tail) > 8:
		return out, errTrailing
	case le.Uint32(tail) != crc32.ChecksumIEEE(out) || le.Uint32(tail[4:]) != uint32(len(out)):
		return out, errChecksum
	}
	return out, nil
}
