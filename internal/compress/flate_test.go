package compress

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"io"
	"runtime"
	"testing"
)

// The in-house gzip and zlib framing (flate.go) is held to the standard
// library's writers, which stay in the tests only as its reference: for
// any segment, every flate codec emits exactly the bytes compress/gzip's
// or compress/zlib's writer emits at its level.

// stdlibFlate frames raw the way codec name's standard-library
// counterpart does: gzip.NewWriter for gzip, zlib.NewWriterLevel for
// zlib-L.
func stdlibFlate(tb testing.TB, name string, raw []byte) []byte {
	tb.Helper()
	var b bytes.Buffer
	var w io.WriteCloser
	if name == "gzip" {
		w = gzip.NewWriter(&b)
	} else {
		var err error
		if w, err = zlib.NewWriterLevel(&b, int(name[len(name)-1]-'0')); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := w.Write(raw); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// FuzzFlateFramingDifferential reads the input as float64 bit patterns
// (NaNs and infinities included) and requires, of gzip, zlib-1, zlib-6 and
// zlib-9, that CompressInto into a dirty dst emits the standard library
// writer's bytes and that gunzip / unzlib read them back to the segment.
// The seeds are the golden corpus' segments at every golden length.
func FuzzFlateFramingDifferential(f *testing.F) {
	for _, n := range goldenLengths {
		for _, seg := range goldenSegments(n) {
			f.Add(appendFloats(nil, seg))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		values := make([]float64, len(data)/8)
		for i := range values {
			values[i] = f64At(data[8*i:])
		}
		if len(values) == 0 {
			return
		}
		raw := appendFloats(nil, values)
		for _, c := range []Codec{NewGzip(), NewZlib(1), NewZlib(6), NewZlib(9)} {
			enc, err := c.CompressInto([]byte("dirty"), values)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if want := stdlibFlate(t, c.Name(), raw); !bytes.Equal(enc.Data, want) {
				t.Fatalf("%s: %d points encode to\n%x\nthe standard library's writer emits\n%x", c.Name(), len(values), enc.Data, want)
			}
			unwrap := unzlib
			if c.Name() == "gzip" {
				unwrap = gunzip
			}
			if got, err := unwrap(nil, enc.Data, len(raw)); err != nil || !bytes.Equal(got, raw) {
				t.Fatalf("%s: the encoding reads back to %d bytes (err %v), want the segment's %d", c.Name(), len(got), err, len(raw))
			}
		}
	})
}

// TestFlatePoolAnyP: the writer put back last serves a caller whatever P
// it runs on. Emptying this P's pool slot stands in for a caller on
// another P, whose slot never held the writer; on one P the test cannot
// migrate in between. A plain sync.Pool returns nothing here, and the
// caller builds a second writer of about 1 MB.
func TestFlatePoolAnyP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p flatePool
	e, err := newFlateEnc(1)
	if err != nil {
		t.Fatal(err)
	}
	p.put(e)
	for p.pool.Get() != nil {
	}
	if got := p.get(); got != e {
		t.Fatalf("get with this P's slot empty returned %p, want the idle writer %p", got, e)
	}
}

// TestFlatePoolHandsOutOnce: a writer that sits in a pool slot and is
// named by last too goes to one caller only until it is put back, then to
// the next.
func TestFlatePoolHandsOutOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p flatePool
	e, err := newFlateEnc(1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		p.put(e)
		if got := p.get(); got != e {
			t.Fatalf("round %d: get returned %p, want the idle writer %p", round, got, e)
		}
		if got := p.get(); got != nil {
			t.Fatalf("round %d: a second get returned %p while the writer is busy, want nil", round, got)
		}
	}
}
