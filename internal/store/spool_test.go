package store

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// pendingBytes and overHighWater read the spool's payload byte count and
// high-water state, which it keeps for its bound and its pressure callback.
func pendingBytes(s *Spool) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

func overHighWater(s *Spool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.over
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
	if pendingBytes(s) != 25 {
		t.Fatalf("bytes = %d, want 25", pendingBytes(s))
	}
}

func TestSpoolDefaultBound(t *testing.T) {
	s := NewSpool(0, 0, 0, nil)
	if err := s.Append(spoolEntry(0, 1)); err != nil {
		t.Fatalf("default-bounded spool rejected first entry: %v", err)
	}
	if s.maxSegments != 4096 || s.maxBytes != 0 {
		t.Fatalf("default bound %d segments, %d bytes; want 4096 segments", s.maxSegments, s.maxBytes)
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
	if s.Acked() != 3 || s.Len() != 2 || pendingBytes(s) != 16 {
		t.Fatalf("acked=%d len=%d bytes=%d", s.Acked(), s.Len(), pendingBytes(s))
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
	if s.Acked() != 100 || pendingBytes(s) != 0 {
		t.Fatalf("acked=%d bytes=%d", s.Acked(), pendingBytes(s))
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
	if !overHighWater(s) {
		t.Fatal("spool should be over the high-water mark")
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
	if overHighWater(s) {
		t.Fatal("spool should be under the high-water mark after drain")
	}
}

// TestSpoolSlidingWindow walks a deep spool through many ACK batches so
// the window goes around the ring several times: Head, HeadAfter, Len, the
// segment bound and the released slots must track the pending window.
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
		if want := int(next - acked); s.Len() != want || pendingBytes(s) != int64(8*want) {
			t.Fatalf("round %d: len=%d bytes=%d, want %d entries", round, s.Len(), pendingBytes(s), want)
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
		checkFreeSlotsZero(t, s)
	}
}

// checkFreeSlotsZero fails if a ring slot outside the pending window still
// holds an entry: a released slot that keeps its payload pins it until the
// ring wraps back around.
func checkFreeSlotsZero(t *testing.T, s *Spool) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.ring {
		k := i - s.head
		if k < 0 {
			k += len(s.ring)
		}
		if e := &s.ring[i]; k >= s.count && (e.ID != 0 || e.Enc.Data != nil || e.Enc.Codec != "") {
			t.Fatalf("free slot %d (head %d, count %d) still holds entry %d", i, s.head, s.count, e.ID)
		}
	}
}

// TestAllocsSpoolAppend pins the spool's whole steady state at zero: Append
// copies into a ring slot and AckBelow zeroes it, so once the ring has
// reached the backlog's depth neither touches the heap — entry included,
// which is what lets the uplink's Send pass a stack literal.
func TestAllocsSpoolAppend(t *testing.T) {
	const depth = 512
	s := NewSpool(2*depth, 0, 0.9, nil)
	payload := make([]byte, 8)
	id := uint64(0)
	appendOne := func() {
		if err := s.Append(&Entry{ID: id, Label: int(id % 3), Enc: compress.Encoded{Codec: "raw", Data: payload, N: 1}}); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for id < depth { // let the ring reach its size
		appendOne()
	}
	step := func() {
		appendOne()
		s.AckBelow(id - depth)
	}
	if avg := testing.AllocsPerRun(4*depth, step); avg != 0 {
		t.Fatalf("Append+AckBelow at depth %d allocates %.2f/op, want 0", depth, avg)
	}
	if s.Len() != depth {
		t.Fatalf("len = %d, want %d", s.Len(), depth)
	}
}

// spoolModel is the reference the ring is held to: a plain slice, with the
// bounds, the watermark and the pressure state recomputed from scratch.
type spoolModel struct {
	maxSegments int
	maxBytes    int64
	highWater   float64
	pending     []Entry
	acked       uint64
	dropped     int
	over        bool
	events      []bool
}

func (m *spoolModel) bytes() (n int64) {
	for _, e := range m.pending {
		n += int64(e.Enc.Size())
	}
	return n
}

func (m *spoolModel) pressure() {
	var u float64
	if m.maxSegments > 0 {
		u = float64(len(m.pending)) / float64(m.maxSegments)
	}
	if m.maxBytes > 0 {
		u = max(u, float64(m.bytes())/float64(m.maxBytes))
	}
	if over := u >= m.highWater; over != m.over {
		m.over = over
		m.events = append(m.events, over)
	}
}

func (m *spoolModel) append(e Entry) error {
	if (m.maxSegments > 0 && len(m.pending) >= m.maxSegments) ||
		(m.maxBytes > 0 && m.bytes()+int64(e.Enc.Size()) > m.maxBytes) {
		m.dropped++
		return ErrSpoolFull
	}
	m.pending = append(m.pending, e)
	m.pressure()
	return nil
}

func (m *spoolModel) ackBelow(next uint64) (released []uint64) {
	for len(m.pending) > 0 && m.pending[0].ID < next {
		released = append(released, m.pending[0].ID)
		m.pending = m.pending[1:]
	}
	m.acked = max(m.acked, next)
	m.pressure()
	return released
}

func (m *spoolModel) headAfter(id uint64) (Entry, bool) {
	for _, e := range m.pending {
		if e.ID > id {
			return e, true
		}
	}
	return Entry{}, false
}

// TestSpoolMatchesReferenceModel drives the ring and the slice model with
// the same random Append / AckBelowVisit / Head / HeadAfter sequence — IDs
// with gaps, bursts that fill the bound and ACKs that drain it so the window
// wraps and the ring grows mid-wrap — under a segment bound, a byte bound,
// both, and bytes only (maxSegments 0: the ring has no cap of its own).
// Every return value, every counter, every visited ID and every pressure
// event must agree.
func TestSpoolMatchesReferenceModel(t *testing.T) {
	for _, bound := range []struct {
		name        string
		maxSegments int
		maxBytes    int64
	}{
		{"segments", 37, 0},
		{"bytes", 200, 900},
		{"both", 24, 2000},
		{"bytes only", 0, 3000},
	} {
		t.Run(bound.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				model := &spoolModel{maxSegments: bound.maxSegments, maxBytes: bound.maxBytes, highWater: 0.6}
				var events []bool
				s := NewSpool(bound.maxSegments, bound.maxBytes, 0.6, func(over bool) { events = append(events, over) })
				var nextID uint64
				var filling bool
				for step := 0; step < 2000; step++ {
					if step%97 == 0 {
						filling = !filling // alternate between building a backlog and draining it
					}
					op := rng.Intn(10)
					switch {
					case op < 3 || (filling && op < 7):
						nextID += 1 + uint64(rng.Intn(3))*uint64(rng.Intn(2)) // mostly consecutive, some gaps
						e := Entry{ID: nextID, Label: rng.Intn(5) - 1, Trace: rng.Uint64(),
							Enc: compress.Encoded{Codec: "raw", Data: make([]byte, rng.Intn(120)), N: 8}}
						want := model.append(e)
						if got := s.Append(&e); got != want {
							t.Fatalf("seed %d step %d: Append(%d) = %v, want %v", seed, step, e.ID, got, want)
						}
					case op < 8:
						next := model.acked + uint64(rng.Intn(12))
						if rng.Intn(8) == 0 {
							next = uint64(rng.Int63n(int64(nextID) + 2)) // stale or far ahead
						}
						want := model.ackBelow(next)
						var visited []uint64
						n := s.AckBelowVisit(next, func(e *Entry) { visited = append(visited, e.ID) })
						if n != len(want) || !slices.Equal(visited, want) {
							t.Fatalf("seed %d step %d: AckBelowVisit(%d) released %v (%d), want %v", seed, step, next, visited, n, want)
						}
					default:
						after := uint64(rng.Int63n(int64(nextID) + 2))
						want, wantOK := model.headAfter(after)
						got, ok := s.HeadAfter(after)
						if ok != wantOK || !sameEntry(got, want) {
							t.Fatalf("seed %d step %d: HeadAfter(%d) = %+v, %v; want %+v, %v", seed, step, after, got, ok, want, wantOK)
						}
					}
					head, ok := s.Head()
					if ok != (len(model.pending) > 0) || (ok && !sameEntry(head, model.pending[0])) {
						t.Fatalf("seed %d step %d: Head = %+v, %v with %d pending in the model", seed, step, head, ok, len(model.pending))
					}
					if s.Len() != len(model.pending) || pendingBytes(s) != model.bytes() || s.Acked() != model.acked ||
						s.Dropped() != model.dropped || overHighWater(s) != model.over {
						t.Fatalf("seed %d step %d: len %d bytes %d acked %d dropped %d over %v; model %d %d %d %d %v", seed, step,
							s.Len(), pendingBytes(s), s.Acked(), s.Dropped(), overHighWater(s),
							len(model.pending), model.bytes(), model.acked, model.dropped, model.over)
					}
					if bound.maxSegments > 0 && len(s.ring) > bound.maxSegments {
						t.Fatalf("seed %d step %d: ring of %d slots past the bound of %d", seed, step, len(s.ring), bound.maxSegments)
					}
				}
				if !slices.Equal(events, model.events) {
					t.Fatalf("seed %d: pressure events %v, want %v", seed, events, model.events)
				}
				checkFreeSlotsZero(t, s)
			}
		})
	}
}

// sameEntry compares the fields the spool carries, payload by identity: the
// ring must hand back the very slice it was given, not a copy.
func sameEntry(a, b Entry) bool {
	return a.ID == b.ID && a.Label == b.Label && a.Trace == b.Trace && a.Enc.Codec == b.Enc.Codec && a.Enc.N == b.Enc.N &&
		len(a.Enc.Data) == len(b.Enc.Data) && (len(a.Enc.Data) == 0 || &a.Enc.Data[0] == &b.Enc.Data[0])
}

// TestSpoolHeadCopyOutlivesSlot is the reason Head and HeadAfter return
// copies: the pump holds an entry outside the lock while the ACK path
// zeroes its slot and Append writes the next entry into it. Run under
// -race; the copy must also still read as the entry it was taken as.
func TestSpoolHeadCopyOutlivesSlot(t *testing.T) {
	const total = 20000
	s := NewSpool(8, 0, 0.9, nil) // a ring this small reuses every slot thousands of times
	payload := func(id uint64) []byte { return []byte{byte(id), byte(id >> 8)} }
	var wg sync.WaitGroup
	wg.Add(2)
	// The device: Append as fast as the bound lets it.
	go func() {
		defer wg.Done()
		for id := uint64(1); id <= total; {
			if s.Append(&Entry{ID: id, Label: int(id), Enc: compress.Encoded{Codec: "raw", Data: payload(id), N: 1}}) == nil {
				id++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var cursor atomic.Uint64 // highest ID the pump has read
	// The ACK reader: release everything the pump has passed.
	go func() {
		defer wg.Done()
		for s.Acked() <= total {
			s.AckBelow(cursor.Load() + 1)
			runtime.Gosched()
		}
	}()
	// The pump: take a copy, let the other two run, then read every field.
	for cursor.Load() < total {
		e, ok := s.HeadAfter(cursor.Load())
		if !ok {
			runtime.Gosched()
			continue
		}
		cursor.Store(e.ID)
		runtime.Gosched()
		if want := payload(e.ID); e.Label != int(e.ID) || e.Enc.N != 1 || e.Enc.Codec != "raw" || !bytes.Equal(e.Enc.Data, want) {
			t.Fatalf("copy of entry %d changed under the pump: %+v", e.ID, e)
		}
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Fatalf("%d entries left", s.Len())
	}
}
