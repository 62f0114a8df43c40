package store

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestWatermarksStoreMonotone(t *testing.T) {
	w := NewWatermarks()
	if _, ok := w.Load(42); ok {
		t.Fatal("empty table reported device 42")
	}
	w.Store(42, 7)
	if next, ok := w.Load(42); !ok || next != 7 {
		t.Fatalf("Load(42) = %d,%v want 7,true", next, ok)
	}
	// A stale (lower) store must not regress the watermark — eviction and
	// shutdown paths may race, and losing progress re-opens delivered IDs.
	w.Store(42, 3)
	if next, _ := w.Load(42); next != 7 {
		t.Fatalf("stale store regressed watermark to %d", next)
	}
	w.Store(42, 12)
	if next, _ := w.Load(42); next != 12 {
		t.Fatalf("advance store gave %d, want 12", next)
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1", w.Len())
	}
}

func TestWatermarksRoundTrip(t *testing.T) {
	w := NewWatermarks()
	want := map[uint64]uint64{0: 1, 42: 1000, 7: 3, math.MaxUint64: math.MaxUint64}
	for id, next := range want {
		w.Store(id, next)
	}
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadWatermarks(&buf)
	if err != nil {
		t.Fatalf("ReadWatermarks: %v", err)
	}
	if got.Len() != len(want) {
		t.Fatalf("round-trip Len = %d, want %d", got.Len(), len(want))
	}
	for id, next := range want {
		if v, ok := got.Load(id); !ok || v != next {
			t.Fatalf("round-trip Load(%d) = %d,%v want %d,true", id, v, ok, next)
		}
	}

	// Serialization is deterministic (sorted by device ID).
	var again bytes.Buffer
	if _, err := w.WriteTo(&again); err != nil {
		t.Fatalf("second WriteTo: %v", err)
	}
	var first bytes.Buffer
	if _, err := w.WriteTo(&first); err != nil {
		t.Fatalf("third WriteTo: %v", err)
	}
	if !bytes.Equal(again.Bytes(), first.Bytes()) {
		t.Fatal("WriteTo output is not deterministic")
	}
}

func TestWatermarksReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("AEP1"),                      // wrong magic
		[]byte("AEW1"),                      // truncated before count
		{'A', 'E', 'W', '1', 2, 1, 1},       // count 2, one entry only
		{'A', 'E', 'W', '1', 1, 0x80},       // torn varint
		{'A', 'E', 'W', '1', 1, 0x87, 0, 1}, // overlong device ID
		{'A', 'E', 'W', '1', 2, 7, 1, 7, 2}, // device 7 twice
		{'A', 'E', 'W', '1', 2, 7, 1, 3, 2}, // IDs out of order
		{'A', 'E', 'W', '1', 1, 7, 0},       // zero watermark
	}
	for i, in := range cases {
		if _, err := ReadWatermarks(bytes.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("case %d: want ErrBadFormat, got %v", i, err)
		}
	}
}

func TestSpoolHeadAfter(t *testing.T) {
	s := NewSpool(10, 0, 0.9, nil)
	for _, id := range []uint64{2, 5, 9} {
		if err := s.Append(spoolEntry(id, 8)); err != nil {
			t.Fatalf("append %d: %v", id, err)
		}
	}
	for _, tc := range []struct {
		after uint64
		want  uint64
		ok    bool
	}{
		{0, 2, true},
		{2, 5, true},
		{3, 5, true},
		{5, 9, true},
		{9, 0, false},
		{100, 0, false},
	} {
		e, ok := s.HeadAfter(tc.after)
		if ok != tc.ok || (ok && e.ID != tc.want) {
			t.Fatalf("HeadAfter(%d) = %v,%v want %d,%v", tc.after, e, ok, tc.want, tc.ok)
		}
	}
	s.AckBelow(6)
	if e, ok := s.HeadAfter(0); !ok || e.ID != 9 {
		t.Fatalf("HeadAfter(0) after ack = %v,%v want 9,true", e, ok)
	}
}

// FuzzReadWatermarks feeds hostile tables to ReadWatermarks: it must not
// panic, must fail only with ErrBadFormat, and a table it accepts must
// re-serialize to exactly the bytes it consumed.
func FuzzReadWatermarks(f *testing.F) {
	for _, table := range []map[uint64]uint64{{}, {0: 1, 7: 3, 42: 1000, math.MaxUint64: math.MaxUint64}} {
		w := NewWatermarks()
		for id, next := range table {
			w.Store(id, next)
		}
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, consumed, err := readConsumed(data, ReadWatermarks)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("error %v is not ErrBadFormat", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := w.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-serialized %x, consumed %x", out.Bytes(), consumed)
		}
	})
}
