package compress

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"weak"
)

// Flate-based codecs encode through compress/flate's raw DEFLATE writer,
// pooled, and frame its output here: gzip (RFC 1952) and zlib (RFC 1950)
// differ only in a header and a checksum trailer around the same DEFLATE
// body, which is how inflate.go parses them on the way back. DEFLATE setup
// (hash chains, window buffers) dominates the cost of compressing the
// ~1 KiB segments AdaEdge works with, and pooling amortizes it the way a
// long-lived C zlib stream would. They decode through the in-house inflate
// (inflate.go), which allocates nothing once warm. compress/gzip and
// compress/zlib, whose writers frame the same bytes, are the test
// references (FuzzFlateFramingDifferential).

// flateCore is the shared implementation behind Gzip and Zlib: a DEFLATE
// level and the framing around it.
type flateCore struct {
	name  string
	level int
	gzip  bool // RFC 1952 framing; RFC 1950 (zlib) otherwise
}

// flateEncs pools raw DEFLATE writers process-wide, one pool per level
// (index level, 1..9); gzip runs level 6, so it shares zlib-6's pool
// (TestAllocsFlateFreshRegistry). A writer is about 1 MB, so they alone of
// the package's scratch are not on a free list, which would hold three
// levels' worth, 3 MB, on an idle device for good. Each pool keeps two
// references to its idle writer, and neither holds it past two
// collections:
//   - the sync.Pool, whose victim cache keeps the writer alive through one
//     collection, so the product's own GC pacing does not rebuild it;
//   - last, a weak pointer to the writer put back last, which any P can
//     take: sync.Pool parks a writer in the private slot of the P that put
//     it back, where no other P reaches it, and without last a goroutine
//     moved to another P would build a writer of its own, one per level
//     per P (TestFlatePoolAnyP).
//
// One writer may be named by several Ps' slots and last at once, so its
// busy flag, not the reference, is what hands it out
// (TestFlatePoolHandsOutOnce).
var flateEncs [10]flatePool

// flatePool is one level's idle DEFLATE writers.
type flatePool struct {
	pool sync.Pool
	mu   sync.Mutex // guards last
	last weak.Pointer[flateEnc]
}

// get returns an idle writer, now busy, or nil when there is none: this
// P's pooled one first, then the one put back last. A reference whose busy
// flag is already set is dropped, since its user will put it back.
func (p *flatePool) get() *flateEnc {
	if e, _ := p.pool.Get().(*flateEnc); e != nil && e.busy.CompareAndSwap(false, true) {
		return e
	}
	p.mu.Lock()
	e := p.last.Value()
	p.mu.Unlock()
	if e != nil && e.busy.CompareAndSwap(false, true) {
		return e
	}
	return nil
}

// put hands e, which get returned or newFlateEnc built, back to p.
func (p *flatePool) put(e *flateEnc) {
	e.busy.Store(false)
	p.mu.Lock()
	p.last = e.self
	p.mu.Unlock()
	p.pool.Put(e)
}

// gzipLevel is the DEFLATE level gzip encodes at: compress/gzip's default,
// which compress/flate runs as level 6.
const gzipLevel = 6

// flateEnc is one pooled encoder: the stream state plus the sink it
// writes through, so a call allocates neither.
type flateEnc struct {
	busy atomic.Bool // set while a caller owns the writer
	self weak.Pointer[flateEnc]
	w    *flate.Writer
	out  appendWriter
}

// newFlateEnc builds a busy encoder at level.
func newFlateEnc(level int) (*flateEnc, error) {
	e := new(flateEnc)
	var err error
	if e.w, err = flate.NewWriter(&e.out, level); err != nil {
		return nil, err
	}
	e.self = weak.Make(e)
	e.busy.Store(true)
	return e, nil
}

// appendWriter is the io.Writer face of an append-style dst.
type appendWriter struct{ b []byte }

func (a *appendWriter) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

func (f *flateCore) compress(dst []byte, values []float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	pool := &flateEncs[f.level]
	e := pool.get()
	if e == nil {
		var err error
		if e, err = newFlateEnc(f.level); err != nil {
			return Encoded{}, err
		}
	}
	raw := byteScratch.Get()
	*raw = appendFloats((*raw)[:0], values)
	e.out.b = f.appendHeader(dst[:0])
	e.w.Reset(&e.out)
	_, err := e.w.Write(*raw)
	if err == nil {
		err = e.w.Close()
	}
	out := f.appendTrailer(e.out.b, *raw)
	e.out.b = nil // the encoding leaves with the caller
	byteScratch.Put(raw)
	if err != nil {
		return Encoded{}, err
	}
	pool.put(e)
	return Encoded{Codec: f.name, Data: out, N: len(values)}, nil
}

// appendHeader appends the framing's header, the bytes compress/gzip's and
// compress/zlib's writers emit with no optional field set. gzip's is ID1
// ID2 CM, no flags, no MTIME, XFL 0 (neither level 1 nor 9) and OS 255
// (unknown). zlib's is CMF (deflate, 32 KiB window) then FLG: the level's
// FLEVEL, no dictionary and the check bits that make CMF·256+FLG a
// multiple of 31.
func (f *flateCore) appendHeader(dst []byte) []byte {
	if f.gzip {
		return append(dst, 0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255)
	}
	var flevel byte
	switch {
	case f.level >= 7:
		flevel = 3
	case f.level == 6:
		flevel = 2
	case f.level >= 2:
		flevel = 1
	}
	cmf, flg := byte(0x78), flevel<<6
	flg += byte(31 - (uint16(cmf)<<8|uint16(flg))%31)
	return append(dst, cmf, flg)
}

// appendTrailer appends the framing's checksum trailer over raw, the
// uncompressed bytes: gzip's CRC-32 and ISIZE, little-endian; zlib's
// Adler-32, big-endian.
func (f *flateCore) appendTrailer(dst, raw []byte) []byte {
	if f.gzip {
		dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(raw))
		return binary.LittleEndian.AppendUint32(dst, uint32(len(raw)))
	}
	return binary.BigEndian.AppendUint32(dst, adler32.Checksum(raw))
}

// decompress inflates enc through the framing's parser (gunzip or unzlib),
// capped at the bytes of maxDecodePoints points: a few hundred KB of
// deflated zeros would otherwise expand to gigabytes before any length
// check runs.
func (f *flateCore) decompress(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != f.name {
		return nil, ErrCodecMismatch
	}
	unwrap := unzlib
	if f.gzip {
		unwrap = gunzip
	}
	raw := byteScratch.Get()
	var out []float64
	var err error
	if *raw, err = unwrap(*raw, enc.Data, 8*maxDecodePoints); err != nil {
		err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	} else {
		out, err = decodeFloats(dst, *raw)
	}
	byteScratch.Put(raw)
	return out, err
}

// Gzip is the general-purpose byte compressor, operating on the IEEE-754
// byte representation of the segment. It is typically the slowest codec
// but achieves good ratios on low-entropy data (paper Fig 2: Gzip fails
// the 4 M pts/s ingest rate).
type Gzip struct{ core flateCore }

// NewGzip returns the Gzip codec at the default compression level.
func NewGzip() *Gzip {
	return &Gzip{flateCore{name: "gzip", level: gzipLevel, gzip: true}}
}

// Name implements Codec.
func (*Gzip) Name() string { return "gzip" }

// CompressInto implements Codec.
func (g *Gzip) CompressInto(dst []byte, values []float64) (Encoded, error) {
	return g.core.compress(dst, values)
}

// DecompressInto implements Codec.
func (g *Gzip) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	return g.core.decompress(dst, enc)
}

// Zlib is the DEFLATE byte compressor with a configurable level, covering
// the paper's zlib-1/zlib-6/zlib-9 candidates (Fig 15).
type Zlib struct{ core flateCore }

// NewZlib returns a Zlib codec at the given level (1..9).
func NewZlib(level int) *Zlib {
	level = min(max(level, 1), 9)
	return &Zlib{flateCore{name: fmt.Sprintf("zlib-%d", level), level: level}}
}

// Name implements Codec.
func (z *Zlib) Name() string { return z.core.name }

// CompressInto implements Codec.
func (z *Zlib) CompressInto(dst []byte, values []float64) (Encoded, error) {
	return z.core.compress(dst, values)
}

// DecompressInto implements Codec.
func (z *Zlib) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	return z.core.decompress(dst, enc)
}
