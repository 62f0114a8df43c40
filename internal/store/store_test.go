package store

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/compress"
)

func entry(id uint64, size int) *Entry {
	return &Entry{ID: id, Enc: compress.Encoded{Codec: "x", Data: make([]byte, size), N: size / 8}}
}

// TestEntryIs128Bytes: an Entry fills the 128-byte size class, so a Pool,
// which allocates one per Put, and the offline engine's EachEntry and
// Drain, which hand out one per segment, waste nothing on rounding.
func TestEntryIs128Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 128 {
		t.Fatalf("store.Entry is %d bytes, want 128", got)
	}
}

func TestLRUVictimOrder(t *testing.T) {
	l := NewLRU()
	l.Put(1)
	l.Put(2)
	l.Put(3)
	if v, ok := l.Victim(); !ok || v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
	// Access 1: it becomes MRU; victim shifts to 2.
	l.Get(1)
	if v, _ := l.Victim(); v != 2 {
		t.Fatalf("victim after Get(1) = %d, want 2", v)
	}
	// Re-Put 2: moves to back; victim shifts to 3.
	l.Put(2)
	if v, _ := l.Victim(); v != 3 {
		t.Fatalf("victim after Put(2) = %d, want 3", v)
	}
	l.Remove(3)
	if v, _ := l.Victim(); v != 1 {
		t.Fatalf("victim after Remove(3) = %d, want 1", v)
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestLRUEmptyVictim(t *testing.T) {
	l := NewLRU()
	if _, ok := l.Victim(); ok {
		t.Fatal("empty LRU should have no victim")
	}
	l.Get(99)    // unknown id: no-op
	l.Remove(99) // unknown id: no-op
}

func TestRoundRobinIgnoresAccess(t *testing.T) {
	r := NewRoundRobin()
	r.Put(1)
	r.Put(2)
	r.Get(1) // access must NOT protect the segment
	if v, _ := r.Victim(); v != 1 {
		t.Fatalf("round-robin victim = %d, want 1 (oldest)", v)
	}
	r.Put(1) // recode rotation moves it to the back
	if v, _ := r.Victim(); v != 2 {
		t.Fatalf("victim after rotation = %d, want 2", v)
	}
	r.Remove(2)
	if v, _ := r.Victim(); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestPoolPutGetVictim(t *testing.T) {
	p := NewPool(nil)
	p.Put(entry(1, 80))
	p.Put(entry(2, 160))
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
	if got := p.TotalBytes(); got != 240 {
		t.Fatalf("total bytes = %d", got)
	}
	v, ok := p.Victim()
	if !ok || v.ID != 1 {
		t.Fatalf("victim = %+v", v)
	}
	// Get(1) protects it: the next victim is 2.
	if _, ok := p.Get(1); !ok {
		t.Fatal("get failed")
	}
	v, _ = p.Victim()
	if v.ID != 2 {
		t.Fatalf("victim after access = %d, want 2", v.ID)
	}
	// Peek must not affect ordering.
	p.Peek(2)
	if v, _ := p.Victim(); v.ID != 2 {
		t.Fatal("peek reordered the policy")
	}
	// Touch moves 2 behind 1.
	p.Touch(2)
	if v, _ := p.Victim(); v.ID != 1 {
		t.Fatalf("victim after touch = %d, want 1", v.ID)
	}
}

func TestPoolRemove(t *testing.T) {
	p := NewPool(nil)
	p.Put(entry(1, 80))
	p.Remove(1)
	if p.Len() != 0 {
		t.Fatal("remove failed")
	}
	if _, ok := p.Victim(); ok {
		t.Fatal("empty pool should have no victim")
	}
	if _, ok := p.Get(1); ok {
		t.Fatal("get of removed entry succeeded")
	}
}

func TestPoolVictimSkipsStalePolicyEntries(t *testing.T) {
	// Forget the entry in the pool only, leaving its slot in the policy.
	lru := NewLRU()
	p := NewPool(lru)
	p.Put(entry(1, 80))
	p.Put(entry(2, 80))
	p.entries[p.slots[1]] = nil // simulate stale policy entry
	delete(p.slots, 1)
	v, ok := p.Victim()
	if !ok || v.ID != 2 {
		t.Fatalf("stale entry not skipped: %+v ok=%v", v, ok)
	}
}

// TestPoolReusesSlots: a removed entry's policy slot goes to the next new
// id, so the pool's slot space stays as dense as its contents, and the
// reused slot joins the recency list afresh, at the back.
func TestPoolReusesSlots(t *testing.T) {
	p := NewPool(nil)
	for id := uint64(1); id <= 3; id++ {
		p.Put(entry(id<<40, 8))
	}
	p.Remove(1 << 40)
	p.Put(entry(4<<40, 8))
	if len(p.entries) != 3 {
		t.Fatalf("%d slots for 3 entries", len(p.entries))
	}
	for _, want := range []uint64{2 << 40, 3 << 40, 4 << 40} {
		v, ok := p.Victim()
		if !ok || v.ID != want {
			t.Fatalf("victim %+v, want id %d", v, want)
		}
		p.Remove(want)
	}
	if _, ok := p.Victim(); ok || p.Len() != 0 {
		t.Fatal("emptied pool still has a victim")
	}
}

func TestPoolEach(t *testing.T) {
	p := NewPool(nil)
	p.Put(entry(1, 8))
	p.Put(entry(2, 8))
	seen := map[uint64]bool{}
	p.Each(func(e *Entry) { seen[e.ID] = true })
	if !seen[1] || !seen[2] {
		t.Fatalf("each missed entries: %v", seen)
	}
}

// TestAllocsPoolPut pins the pool's bookkeeping per ingested segment: the
// order list links slots inside one slab, so Put + Victim + Touch allocate
// nothing of their own — what remains is the amortised growth of the slab,
// the pool's entry slice and its id map, well under one allocation per segment
// (container/list cost an Element and a boxed id per Put on top of it).
// Counted from MemStats because testing.AllocsPerRun truncates to whole
// allocations, which would hide exactly that difference.
func TestAllocsPoolPut(t *testing.T) {
	for name, policy := range map[string]Policy{"lru": NewLRU(), "roundrobin": NewRoundRobin()} {
		p := NewPool(policy)
		entries := make([]Entry, 4096)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range entries {
			entries[i].ID = uint64(i)
			p.Put(&entries[i])
			if v, ok := p.Victim(); ok {
				p.Touch(v.ID)
			}
		}
		runtime.ReadMemStats(&after)
		if got := float64(after.Mallocs-before.Mallocs) / float64(len(entries)); got >= 1 {
			t.Errorf("%s: Put+Victim+Touch allocates %.2f/op amortised, want under 1", name, got)
		}
		if p.Len() != len(entries) {
			t.Errorf("%s: pool holds %d of %d entries", name, p.Len(), len(entries))
		}
	}
}

// TestAllocsLRUFor: an LRU built with room for n slots grows its recency
// list by doubling, so registering about 8n slots takes three steps past
// the first list. append's own growth, a quarter at a time past 256
// elements, took six and ended further past the slots in use.
func TestAllocsLRUFor(t *testing.T) {
	got := testing.AllocsPerRun(5, func() {
		l := NewLRUFor(560)
		for s := int32(0); s < 4096; s++ {
			l.Put(s)
		}
	})
	if got != 4 { // the first list and three doublings; the policy stays on the stack
		t.Errorf("registering 4 096 slots in an LRU built for 560 allocates %v times, want 4", got)
	}
}
