package compress

import (
	"compress/gzip"
	"compress/zlib"
	"fmt"
	"io"
	"sync"
)

// Flate-based codecs encode through the standard library's writers, pooled:
// DEFLATE setup (hash chains, window buffers) dominates the cost of
// compressing the ~1 KiB segments AdaEdge works with, and pooling amortizes
// it the way a long-lived C zlib stream would. They decode through the
// in-house inflate (inflate.go), which allocates nothing once warm.

// flateCore is the shared implementation behind Gzip and Zlib, which
// differ only in the stdlib writer they wrap and the framing they parse.
type flateCore struct {
	name      string
	newWriter func(io.Writer) (flateWriter, error)
	encs      *sync.Pool // *flateEnc: flateEncs[0] for gzip, [level] for zlib
}

// flateEncs pools encoders process-wide, one pool per codec name, like
// every other codec scratch: a registry built later (each engine built
// without one builds its own) reuses the writers, ~600 KB each, that
// earlier ones put back (TestAllocsFlateFreshRegistry). Index 0 is gzip,
// index level is zlib-level.
var flateEncs [10]sync.Pool

// flateWriter is what gzip.Writer and zlib.Writer share.
type flateWriter interface {
	io.WriteCloser
	Reset(io.Writer)
}

// flateEnc is one pooled encoder: the stream state plus the sink it
// writes through, so a call allocates neither.
type flateEnc struct {
	w   flateWriter
	out appendWriter
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
	e, _ := f.encs.Get().(*flateEnc)
	if e == nil {
		e = new(flateEnc)
		var err error
		if e.w, err = f.newWriter(&e.out); err != nil {
			return Encoded{}, err
		}
	}
	e.out.b = dst[:0]
	e.w.Reset(&e.out)
	raw := byteScratch.Get().(*[]byte)
	*raw = appendFloats((*raw)[:0], values)
	_, err := e.w.Write(*raw)
	byteScratch.Put(raw)
	if err == nil {
		err = e.w.Close()
	}
	out := e.out.b
	e.out.b = nil // the encoding leaves with the caller
	if err != nil {
		return Encoded{}, err
	}
	f.encs.Put(e)
	return Encoded{Codec: f.name, Data: out, N: len(values)}, nil
}

// decompress inflates enc through unwrap, which parses its framing (gunzip
// or unzlib), capped at the bytes of maxDecodePoints points: a few hundred
// KB of deflated zeros would otherwise expand to gigabytes before any
// length check runs.
func (f *flateCore) decompress(dst []float64, enc Encoded, unwrap func(out, src []byte, limit int) ([]byte, error)) ([]float64, error) {
	if enc.Codec != f.name {
		return nil, ErrCodecMismatch
	}
	raw := byteScratch.Get().(*[]byte)
	var out []float64
	var err error
	if *raw, err = unwrap(*raw, enc.Data, 8*maxDecodePoints); err != nil {
		err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	} else {
		out, err = decodeFloats(dst, *raw)
	}
	if err != nil && cap(*raw) > maxPooledScratch {
		// What a hostile payload inflated to is not a working set: let the
		// collector have it now, not two cycles after the pool lets go.
		*raw = nil
	}
	byteScratch.Put(raw)
	return out, err
}

// maxPooledScratch is the largest inflate buffer a failed decode hands
// back to byteScratch: 131 072 points, a thousand ordinary segments.
const maxPooledScratch = 1 << 20

// Gzip is the general-purpose byte compressor, operating on the IEEE-754
// byte representation of the segment. It is typically the slowest codec
// but achieves good ratios on low-entropy data (paper Fig 2: Gzip fails
// the 4 M pts/s ingest rate).
type Gzip struct{ core flateCore }

// NewGzip returns the Gzip codec at the default compression level.
func NewGzip() *Gzip {
	return &Gzip{flateCore{
		name:      "gzip",
		newWriter: func(w io.Writer) (flateWriter, error) { return gzip.NewWriter(w), nil },
		encs:      &flateEncs[0],
	}}
}

// Name implements Codec.
func (*Gzip) Name() string { return "gzip" }

// CompressInto implements Codec.
func (g *Gzip) CompressInto(dst []byte, values []float64) (Encoded, error) {
	return g.core.compress(dst, values)
}

// DecompressInto implements Codec.
func (g *Gzip) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	return g.core.decompress(dst, enc, gunzip)
}

// Zlib is the DEFLATE byte compressor with a configurable level, covering
// the paper's zlib-1/zlib-6/zlib-9 candidates (Fig 15).
type Zlib struct{ core flateCore }

// NewZlib returns a Zlib codec at the given level (1..9).
func NewZlib(level int) *Zlib {
	level = min(max(level, 1), 9)
	return &Zlib{flateCore{
		name:      fmt.Sprintf("zlib-%d", level),
		newWriter: func(w io.Writer) (flateWriter, error) { return zlib.NewWriterLevel(w, level) },
		encs:      &flateEncs[level],
	}}
}

// Name implements Codec.
func (z *Zlib) Name() string { return z.core.name }

// CompressInto implements Codec.
func (z *Zlib) CompressInto(dst []byte, values []float64) (Encoded, error) {
	return z.core.compress(dst, values)
}

// DecompressInto implements Codec.
func (z *Zlib) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	return z.core.decompress(dst, enc, unzlib)
}
