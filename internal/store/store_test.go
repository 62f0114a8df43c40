package store

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/compress"
)

func entry(id uint64, size int) *Entry {
	return &Entry{ID: id, Enc: compress.Encoded{Codec: "x", Data: make([]byte, size), N: size / 8}}
}

// drain empties p through Victim and Remove and returns its victims in
// order: the slots it tracked. It stops after limit+1 victims, so a policy
// that names a slot Remove does not forget still ends.
func drain(p Policy, limit int) []int32 {
	var out []int32
	for len(out) <= limit {
		s, ok := p.Victim()
		if !ok {
			break
		}
		p.Remove(s)
		out = append(out, s)
	}
	return out
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
	if got := drain(l, 3); !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("victims %v, want [1 2]", got)
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
	if got := drain(r, 2); !slices.Equal(got, []int32{1}) {
		t.Fatalf("victims %v, want [1]", got)
	}
}

func TestPoolPutGetVictim(t *testing.T) {
	p := NewPool(nil)
	p.Put(entry(1, 80))
	p.Put(entry(2, 160))
	v, ok := p.Victim()
	if !ok || v.ID != 1 {
		t.Fatalf("victim = %+v", v)
	}
	// Touch moves 1 behind 2.
	p.Touch(1)
	if v, _ := p.Victim(); v.ID != 2 {
		t.Fatalf("victim after touch = %d, want 2", v.ID)
	}
	// A re-Put replaces the entry and moves it to the back.
	p.Put(entry(2, 8))
	if v, _ := p.Victim(); v.ID != 1 {
		t.Fatalf("victim after re-put = %d, want 1", v.ID)
	}
	p.Touch(99) // unknown id: no-op
	if v, _ := p.Victim(); v.ID != 1 {
		t.Fatal("touching an unknown id reordered the policy")
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
		if len(p.slots) != len(entries) {
			t.Errorf("%s: pool holds %d of %d entries", name, len(p.slots), len(entries))
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
