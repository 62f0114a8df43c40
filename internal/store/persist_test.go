package store

import (
	"bytes"
	"testing"

	"repro/internal/compress"
	"repro/internal/datasets"
)

func populatedPool(t *testing.T, n int) *Pool {
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
			ID: uint64(i), Enc: enc, Lossless: true, Level: i % 3,
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
	}
	for i, data := range cases {
		if _, err := ReadPool(bytes.NewReader(data), nil); err == nil {
			t.Errorf("case %d: garbage accepted", i)
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
