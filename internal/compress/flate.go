package compress

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"fmt"
	"io"
	"sync"
)

// Flate-based codecs pool their writer and reader state: DEFLATE setup
// (Huffman tables, window buffers) dominates the cost of (de)compressing
// the ~1 KiB segments AdaEdge works with, and pooling amortizes it the way
// a long-lived C zlib stream would.

// flateCore is the shared implementation behind Gzip and Zlib, which
// differ only in the stdlib constructors they wrap.
type flateCore struct {
	name      string
	newWriter func(io.Writer) (flateWriter, error)
	newReader func(io.Reader) (io.ReadCloser, error)
	reset     func(io.ReadCloser, io.Reader) error
	encs      sync.Pool // *flateEnc
	decs      sync.Pool // *flateDec
}

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

// flateDec is one pooled decoder: the stream state and the bytes.Reader
// it pulls the payload through.
type flateDec struct {
	r   io.ReadCloser
	src bytes.Reader
}

// decompress caps the inflated size at the bytes of maxDecodePoints
// points: a few hundred KB of deflated zeros would otherwise expand to
// gigabytes before any length check runs.
func (f *flateCore) decompress(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != f.name {
		return nil, ErrCodecMismatch
	}
	d, _ := f.decs.Get().(*flateDec)
	if d == nil {
		d = new(flateDec)
	}
	d.src.Reset(enc.Data)
	var err error
	if d.r == nil {
		d.r, err = f.newReader(&d.src)
	} else {
		err = f.reset(d.r, &d.src)
	}
	raw := byteScratch.Get().(*[]byte)
	if err == nil {
		*raw, err = readBounded((*raw)[:0], d.r, 8*maxDecodePoints)
	}
	if err == nil {
		err = d.r.Close()
	}
	d.src.Reset(nil) // a pooled decoder must not pin the caller's bytes
	var out []float64
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	} else {
		f.decs.Put(d)
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

// readBounded appends r's content to buf and fails once it exceeds limit
// bytes. A full buf moves to the smallest of the capacities (limit+1)>>2k
// that at least doubles it, never to a multiple of whatever capacity the
// pooled scratch happened to arrive with: the buffers a rejected payload
// leaves behind then sum to under 4/3 of limit+1 from any start, where
// append's own growth steps overshot the limit by up to 2.4x on the last.
func readBounded(buf []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			next := limit + 1
			for next>>2 >= max(2*cap(buf), 512) {
				next >>= 2
			}
			buf = append(make([]byte, 0, next), buf...)
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, fmt.Errorf("inflates past %d bytes", limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

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
		newReader: func(r io.Reader) (io.ReadCloser, error) { return gzip.NewReader(r) },
		reset:     func(rc io.ReadCloser, r io.Reader) error { return rc.(*gzip.Reader).Reset(r) },
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
	return g.core.decompress(dst, enc)
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
		newReader: zlib.NewReader,
		reset:     func(rc io.ReadCloser, r io.Reader) error { return rc.(zlib.Resetter).Reset(r, nil) },
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
	return z.core.decompress(dst, enc)
}
