package store

import (
	"errors"
	"testing"

	"repro/internal/compress"
)

func spoolEntry(id uint64, size int) *Entry {
	return &Entry{ID: id, Enc: compress.Encoded{Codec: "raw", Data: make([]byte, size), N: size / 8}}
}

func TestSpoolSegmentBound(t *testing.T) {
	s := NewSpool(3, 0, 0.9, nil)
	for i := uint64(0); i < 3; i++ {
		if err := s.Append(spoolEntry(i, 10)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Append(spoolEntry(3, 10)); !errors.Is(err, ErrSpoolFull) {
		t.Fatalf("want ErrSpoolFull, got %v", err)
	}
	if s.Len() != 3 || s.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", s.Len(), s.Dropped())
	}
}

func TestSpoolByteBound(t *testing.T) {
	s := NewSpool(0, 25, 0.9, nil)
	if err := s.Append(spoolEntry(0, 20)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s.Append(spoolEntry(1, 10)); !errors.Is(err, ErrSpoolFull) {
		t.Fatalf("want ErrSpoolFull, got %v", err)
	}
	if err := s.Append(spoolEntry(1, 5)); err != nil {
		t.Fatalf("append within byte budget: %v", err)
	}
	if s.Bytes() != 25 {
		t.Fatalf("bytes = %d, want 25", s.Bytes())
	}
}

func TestSpoolDefaultBound(t *testing.T) {
	s := NewSpool(0, 0, 0, nil)
	if err := s.Append(spoolEntry(0, 1)); err != nil {
		t.Fatalf("default-bounded spool rejected first entry: %v", err)
	}
	if u := s.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestSpoolAckBelow(t *testing.T) {
	s := NewSpool(10, 0, 0.9, nil)
	for i := uint64(0); i < 5; i++ {
		if err := s.Append(spoolEntry(i, 8)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if n := s.AckBelow(3); n != 3 {
		t.Fatalf("AckBelow released %d, want 3", n)
	}
	if s.Acked() != 3 || s.Len() != 2 || s.Bytes() != 16 {
		t.Fatalf("acked=%d len=%d bytes=%d", s.Acked(), s.Len(), s.Bytes())
	}
	head, ok := s.Head()
	if !ok || head.ID != 3 {
		t.Fatalf("head = %+v ok=%v, want ID 3", head, ok)
	}
	// A stale (lower) cumulative ACK releases nothing and cannot lower the
	// watermark.
	if n := s.AckBelow(1); n != 0 {
		t.Fatalf("stale ack released %d entries", n)
	}
	if s.Acked() != 3 {
		t.Fatalf("stale ack moved watermark to %d", s.Acked())
	}
	if n := s.AckBelow(100); n != 2 {
		t.Fatalf("final ack released %d, want 2", n)
	}
	if _, ok := s.Head(); ok {
		t.Fatal("spool should be empty")
	}
	if s.Acked() != 100 || s.Bytes() != 0 {
		t.Fatalf("acked=%d bytes=%d", s.Acked(), s.Bytes())
	}
}

func TestSpoolPressureCallback(t *testing.T) {
	var events []bool
	s := NewSpool(4, 0, 0.75, func(over bool) { events = append(events, over) })
	for i := uint64(0); i < 2; i++ {
		if err := s.Append(spoolEntry(i, 8)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if len(events) != 0 {
		t.Fatalf("pressure fired below the mark: %v", events)
	}
	if err := s.Append(spoolEntry(2, 8)); err != nil { // 3/4 = 0.75, at the mark
		t.Fatalf("append: %v", err)
	}
	if len(events) != 1 || !events[0] {
		t.Fatalf("want one over=true event, got %v", events)
	}
	if !s.OverHighWater() {
		t.Fatal("OverHighWater should report true")
	}
	// Staying over the mark must not re-fire.
	if err := s.Append(spoolEntry(3, 8)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("duplicate pressure event: %v", events)
	}
	// Draining below the mark fires over=false exactly once.
	s.AckBelow(3)
	if len(events) != 2 || events[1] {
		t.Fatalf("want over=false after drain, got %v", events)
	}
	if s.OverHighWater() {
		t.Fatal("OverHighWater should report false after drain")
	}
}

// TestSpoolSlidingWindow walks a deep spool through many ACK batches so
// the head index advances, compacts and advances again: Head, HeadAfter,
// Len, the segment bound and the released slots must track the live
// window, never the dead prefix.
func TestSpoolSlidingWindow(t *testing.T) {
	const depth = 64
	s := NewSpool(depth, 0, 0.9, nil)
	next := uint64(0)
	fill := func() {
		for s.Len() < depth {
			if err := s.Append(spoolEntry(next, 8)); err != nil {
				t.Fatalf("append %d at len %d: %v", next, s.Len(), err)
			}
			next++
		}
		if err := s.Append(spoolEntry(next, 8)); !errors.Is(err, ErrSpoolFull) {
			t.Fatalf("append past the bound at len %d: %v", s.Len(), err)
		}
	}
	acked := uint64(0)
	for round, batch := range []uint64{1, 7, 31, 1, 40, 64, 3, 33} {
		fill()
		acked += batch
		if n := s.AckBelow(acked); n != int(batch) {
			t.Fatalf("round %d: released %d, want %d", round, n, batch)
		}
		if want := int(next - acked); s.Len() != want || s.Bytes() != int64(8*want) {
			t.Fatalf("round %d: len=%d bytes=%d, want %d entries", round, s.Len(), s.Bytes(), want)
		}
		head, ok := s.Head()
		if ok != (acked < next) || (ok && head.ID != acked) {
			t.Fatalf("round %d: head = %+v ok=%v, want ID %d", round, head, ok, acked)
		}
		for _, id := range []uint64{0, acked, acked + 5, next - 2} {
			e, ok := s.HeadAfter(id)
			want := max(id+1, acked)
			if ok != (want < next) || (ok && e.ID != want) {
				t.Fatalf("round %d: HeadAfter(%d) = %+v ok=%v, want ID %d", round, id, e, ok, want)
			}
		}
		for i, e := range s.entries[:s.head] {
			if e != nil {
				t.Fatalf("round %d: released slot %d still pins entry %d", round, i, e.ID)
			}
		}
		for i, e := range s.entries[len(s.entries):cap(s.entries)] {
			if e != nil {
				t.Fatalf("round %d: slot %d past the window still pins entry %d", round, i, e.ID)
			}
		}
	}
}

// TestAllocsSpoolAck pins the ACK path: at a steady depth, one Append and
// one AckBelow reuse the backing array (the parent copied every pending
// pointer into a fresh slice per ACK, under the lock).
func TestAllocsSpoolAck(t *testing.T) {
	const depth = 512
	s := NewSpool(2*depth, 0, 0.9, nil)
	entries := make([]*Entry, 4*depth)
	for i := range entries {
		entries[i] = spoolEntry(uint64(i), 8)
	}
	for _, e := range entries[:depth] {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	id := uint64(depth)
	step := func() {
		e := entries[id%uint64(len(entries))]
		e.ID = id
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
		id++
		s.AckBelow(id - depth)
	}
	for i := 0; i < 4*depth; i++ { // let the backing array reach its size
		step()
	}
	if avg := testing.AllocsPerRun(4*depth, step); avg != 0 {
		t.Fatalf("Append+AckBelow at depth %d allocates %.2f/op, want 0", depth, avg)
	}
	if s.Len() != depth {
		t.Fatalf("len = %d, want %d", s.Len(), depth)
	}
}
