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

// populatedEntries is n CBF segments in id order, each encoded by the next
// lossless codec in turn.
func populatedEntries(t testing.TB, n int) []*Entry {
	t.Helper()
	reg := compress.DefaultRegistry(4)
	X, y := datasets.CBF(n, datasets.CBFConfig{Seed: 9})
	names := reg.Lossless()
	entries := make([]*Entry, len(X))
	for i, row := range X {
		codec, _ := reg.Lookup(names[i%len(names)])
		enc, err := compress.Compress(codec, row)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = &Entry{
			ID: uint64(i), Enc: enc, Lossless: true, Level: int32(i % 3),
			Label:  y[i],
			Sketch: row[:4], // must NOT be persisted
		}
	}
	return entries
}

// writeEntries dumps entries, whose ids increase, through WriteDump.
func writeEntries(w io.Writer, entries []*Entry) (int64, error) {
	return WriteDump(w, len(entries), func(i int) *Entry { return entries[i] })
}

// readEntries reads a dump back through ReadDump, in the order it hands
// the entries over.
func readEntries(r io.Reader) ([]*Entry, error) {
	var entries []*Entry
	err := ReadDump(r, func(e *Entry) error { entries = append(entries, e); return nil })
	return entries, err
}

func TestPersistRoundTrip(t *testing.T) {
	orig := populatedEntries(t, 12)
	var buf bytes.Buffer
	n, err := writeEntries(&buf, orig)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := readEntries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("restored %d entries, want %d", len(got), len(orig))
	}
	for i, restored := range got {
		o := orig[i]
		if restored.ID != o.ID || restored.Label != o.Label || restored.Level != o.Level || restored.Lossless != o.Lossless {
			t.Fatalf("entry %d metadata mismatch: %+v vs %+v", o.ID, restored, o)
		}
		if restored.Sketch != nil {
			t.Fatal("Sketch must not be persisted")
		}
		if restored.Enc.Codec != o.Enc.Codec || restored.Enc.N != o.Enc.N || !bytes.Equal(restored.Enc.Data, o.Enc.Data) {
			t.Fatalf("entry %d payload differs", o.ID)
		}
	}
}

// TestPersistRestoredPolicyOrder: ReadDump hands the entries over in id
// order, so a policy they are registered with in that order makes the
// lowest id the first victim.
func TestPersistRestoredPolicyOrder(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeEntries(&buf, populatedEntries(t, 5)); err != nil {
		t.Fatal(err)
	}
	got, err := readEntries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lru := NewLRU()
	for i, e := range got {
		if e.ID != uint64(i) {
			t.Fatalf("entry %d handed over as the %d-th", e.ID, i)
		}
		lru.Put(int32(e.ID))
	}
	if v, ok := lru.Victim(); !ok || v != 0 {
		t.Fatalf("victim = %d, want id 0", v)
	}
}

func TestPersistEmptyPool(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeEntries(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := readEntries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
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
		// What WriteDump never writes: an overlong count, an unknown flag
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
		if _, err := readEntries(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: want ErrBadFormat, got %v", i, err)
		}
	}
}

func TestPersistTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeEntries(&buf, populatedEntries(t, 4)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{5, len(data) / 2, len(data) - 1} {
		if _, err := readEntries(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// forgedDump is 30 bytes of AEP1: one paa segment of N 128 whose length
// field claims 1 GiB, followed by ten bytes of data. It is also
// testdata/fuzz/FuzzReadDump/forged_1gib_length.
func forgedDump() []byte {
	dump := binary.AppendUvarint([]byte("AEP1\x01\x00\x00\x00\x00\x03paa\x80\x01"), 1<<30)
	return append(dump, make([]byte, 10)...)
}

// TestReadPoolForgedLengthBounded is the regression for the pool dump
// reader trusting a dump's length field: the forged dump used to allocate
// the whole 1 GiB it claims before reading the ten bytes that follow.
func TestReadPoolForgedLengthBounded(t *testing.T) {
	dump := forgedDump()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readEntries(bytes.NewReader(dump))
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

// FuzzReadDump feeds hostile dumps to ReadDump: it must not panic, must
// fail only with ErrBadFormat, and a dump it accepts must re-serialize
// through WriteDump to exactly the bytes it consumed.
func FuzzReadDump(f *testing.F) {
	lossy := []*Entry{
		{ID: 300, Label: -2, Level: 7, Enc: compress.Encoded{Codec: "paa", N: 128, Data: []byte{1, 2, 3}}},
		{ID: 1 << 40, Lossless: true, Enc: compress.Encoded{Codec: "gorilla", N: 1, Data: nil}},
	}
	for _, entries := range [][]*Entry{nil, populatedEntries(f, 4), lossy} {
		var buf bytes.Buffer
		if _, err := writeEntries(&buf, entries); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, consumed, err := readConsumed(data, readEntries)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("error %v is not ErrBadFormat", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := writeEntries(&out, entries); err != nil {
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
	entries := populatedEntries(t, 60)
	var full bytes.Buffer
	size, err := writeEntries(&full, entries)
	if err != nil || size != int64(full.Len()) || size < 8<<10 {
		t.Fatalf("dump of %d bytes (%d written), err %v: want more than the 4 KiB buffer", size, full.Len(), err)
	}
	wm := NewWatermarks()
	wm.Store(7, 3)
	for _, limit := range []int{0, 3, 4095, 4096, 5000, int(size) / 2, int(size) - 1} {
		if n, err := writeEntries(&limitWriter{limit}, entries); !errors.Is(err, errWriterFull) || n > size {
			t.Errorf("pool dump into %d bytes: %d written, err %v", limit, n, err)
		}
		if limit < 10 {
			if _, err := wm.WriteTo(&limitWriter{limit}); !errors.Is(err, errWriterFull) {
				t.Errorf("watermarks into %d bytes: err %v", limit, err)
			}
		}
	}
	if n, err := writeEntries(&limitWriter{int(size)}, entries); err != nil || n != size {
		t.Errorf("dump into exactly its size: %d written, err %v", n, err)
	}
}
