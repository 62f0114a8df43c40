package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/datasets"
)

func populatedPool(t testing.TB, n int) *Pool {
	t.Helper()
	reg := compress.DefaultRegistry(4)
	X, y := datasets.CBF(n, datasets.CBFConfig{Seed: 9})
	p := NewPool(nil)
	names := reg.Lossless()
	for i, row := range X {
		codec, _ := reg.Lookup(names[i%len(names)])
		enc, err := compress.Compress(codec, row)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(&Entry{
			ID: uint64(i), Enc: enc, Lossless: true, Level: int32(i % 3),
			Label:  y[i],
			Sketch: row[:4], // must NOT be persisted
		})
	}
	return p
}

func TestPersistRoundTrip(t *testing.T) {
	p := populatedPool(t, 12)
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadPool(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != p.Len() {
		t.Fatalf("restored %d entries, want %d", got.Len(), p.Len())
	}
	reg := compress.DefaultRegistry(4)
	p.Each(func(orig *Entry) {
		restored, ok := got.Peek(orig.ID)
		if !ok {
			t.Fatalf("entry %d missing", orig.ID)
		}
		if restored.Label != orig.Label || restored.Level != orig.Level || restored.Lossless != orig.Lossless {
			t.Fatalf("entry %d metadata mismatch: %+v vs %+v", orig.ID, restored, orig)
		}
		if restored.Sketch != nil {
			t.Fatal("Sketch must not be persisted")
		}
		origVals, err := reg.Decompress(orig.Enc)
		if err != nil {
			t.Fatal(err)
		}
		gotVals, err := reg.Decompress(restored.Enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range origVals {
			if origVals[i] != gotVals[i] {
				t.Fatalf("entry %d value %d differs", orig.ID, i)
			}
		}
	})
}

func TestPersistRestoredPolicyOrder(t *testing.T) {
	p := populatedPool(t, 5)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPool(&buf, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	// Entries re-enter in id order: the LRU victim is the lowest id.
	v, ok := got.Victim()
	if !ok || v.ID != 0 {
		t.Fatalf("victim = %+v, want id 0", v)
	}
}

func TestPersistEmptyPool(t *testing.T) {
	p := NewPool(nil)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPool(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("phantom entries")
	}
}

func TestPersistRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("AEP1"), // truncated after magic
		append([]byte("AEP1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), // absurd count
		// One well-formed segment (id 0, label 0, lossy, level 0, 2 data
		// bytes) whose point count N is 0.
		[]byte("AEP1\x01\x00\x00\x00\x00\x03paa\x00\x02\x01\x01"),
		// What WriteTo never writes: an overlong count, an unknown flag
		// bit, and two segments under one id.
		[]byte("AEP1\x80\x00"),
		[]byte("AEP1\x01\x00\x00\x02\x00\x03paa\x01\x01\x01"),
		[]byte("AEP1\x02\x05\x00\x00\x00\x03paa\x01\x01\x01\x05\x00\x00\x00\x03paa\x01\x01\x01"),
		// A level of 1<<31, past what Entry.Level holds: accepting it would
		// re-serialize as another number.
		[]byte("AEP1\x01\x00\x00\x00\x80\x80\x80\x80\x08\x03paa\x01\x01\x01"),
		// N = 1<<63, which Entry.N would hold as a negative count.
		[]byte("AEP1\x01\x00\x00\x00\x00\x03paa\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x01\x01"),
	}
	for i, data := range cases {
		if _, err := ReadPool(bytes.NewReader(data), nil); !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: want ErrBadFormat, got %v", i, err)
		}
	}
}

func TestPersistTruncatedPayload(t *testing.T) {
	p := populatedPool(t, 4)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{5, len(data) / 2, len(data) - 1} {
		if _, err := ReadPool(bytes.NewReader(data[:cut]), nil); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// forgedPoolDump is 30 bytes of AEP1: one paa segment of N 128 whose
// length field claims 1 GiB, followed by ten bytes of data. It is also
// testdata/fuzz/FuzzReadPool/forged_1gib_length.
func forgedPoolDump() []byte {
	dump := binary.AppendUvarint([]byte("AEP1\x01\x00\x00\x00\x00\x03paa\x80\x01"), 1<<30)
	return append(dump, make([]byte, 10)...)
}

// TestReadPoolForgedLengthBounded is the regression for ReadPool trusting
// a dump's length field: the forged dump used to allocate the whole 1 GiB
// it claims before reading the ten bytes that follow.
func TestReadPoolForgedLengthBounded(t *testing.T) {
	dump := forgedPoolDump()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadPool(bytes.NewReader(dump), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("forged %d-byte dump: err = %v, want ErrBadFormat", len(dump), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("forged %d-byte dump allocated %d bytes, want < 1 MiB", len(dump), got)
	}
}

// readConsumed runs read over data and returns what it read plus the
// prefix of data it consumed. The readers wrap their input in
// bufio.NewReader, which adopts a *bufio.Reader of the default size as is,
// so whatever it buffered but did not consume is still counted here.
func readConsumed[T any](data []byte, read func(io.Reader) (T, error)) (T, []byte, error) {
	src := bytes.NewReader(data)
	br := bufio.NewReader(src)
	v, err := read(br)
	return v, data[:len(data)-src.Len()-br.Buffered()], err
}

// FuzzReadPool feeds hostile dumps to ReadPool: it must not panic, must
// fail only with ErrBadFormat, and a dump it accepts must re-serialize to
// exactly the bytes it consumed.
func FuzzReadPool(f *testing.F) {
	for _, p := range []*Pool{NewPool(nil), populatedPool(f, 4)} {
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	lossy := NewPool(nil)
	lossy.Put(&Entry{ID: 300, Label: -2, Level: 7, Enc: compress.Encoded{Codec: "paa", N: 128, Data: []byte{1, 2, 3}}})
	lossy.Put(&Entry{ID: 1 << 40, Lossless: true, Enc: compress.Encoded{Codec: "gorilla", N: 1, Data: nil}})
	var buf bytes.Buffer
	if _, err := lossy.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, consumed, err := readConsumed(data, func(r io.Reader) (*Pool, error) { return ReadPool(r, nil) })
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("error %v is not ErrBadFormat", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := p.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-serialized %x, consumed %x", out.Bytes(), consumed)
		}
	})
}

// limitWriter accepts limit bytes, then fails.
type limitWriter struct{ limit int }

var errWriterFull = errors.New("writer full")

func (w *limitWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errWriterFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestDumpWriteErrorsSurface: the dump writers check no write and rely on
// the buffered writer's first error sticking, so a destination that fails
// anywhere, mid-stream or at the final flush, must still fail the dump.
func TestDumpWriteErrorsSurface(t *testing.T) {
	p := populatedPool(t, 60)
	var full bytes.Buffer
	size, err := p.WriteTo(&full)
	if err != nil || size != int64(full.Len()) || size < 8<<10 {
		t.Fatalf("dump of %d bytes (%d written), err %v: want more than the 4 KiB buffer", size, full.Len(), err)
	}
	wm := NewWatermarks()
	wm.Store(7, 3)
	for _, limit := range []int{0, 3, 4095, 4096, 5000, int(size) / 2, int(size) - 1} {
		if n, err := p.WriteTo(&limitWriter{limit}); !errors.Is(err, errWriterFull) || n > size {
			t.Errorf("pool dump into %d bytes: %d written, err %v", limit, n, err)
		}
		if limit < 10 {
			if _, err := wm.WriteTo(&limitWriter{limit}); !errors.Is(err, errWriterFull) {
				t.Errorf("watermarks into %d bytes: err %v", limit, err)
			}
		}
	}
	if n, err := p.WriteTo(&limitWriter{int(size)}); err != nil || n != size {
		t.Errorf("dump into exactly its size: %d written, err %v", n, err)
	}
}
