package store

import (
	"sync"

	"repro/internal/compress"
)

// Entry is a compressed segment resident in the pool, and the form in
// which the offline engine hands a stored segment out (EachEntry, Drain,
// SaveTo); the engine itself keeps a smaller pointer-free row per segment
// and builds an Entry from it. It is 128 bytes, a size class of its own,
// so a Pool's entries waste nothing (TestEntryIs128Bytes): a field added
// here must take a word from another.
type Entry struct {
	// ID is the segment id.
	ID uint64
	// Enc is the current compressed representation.
	Enc compress.Encoded
	// Lossless records whether Enc was produced by a lossless codec.
	Lossless bool
	// Level counts how many times the segment has been recoded (0 =
	// first compression). It shares Lossless's word.
	Level int32
	// Label is the segment's class label, carried for ML evaluation.
	Label int
	// Trace is the segment's span identity (0 = untraced), carried through
	// the uplink spool so retransmissions keep the original identity and
	// the wire can propagate it to the collector (see internal/obs).
	Trace uint64
	// StartSec and EndSec bound the segment's span on the device's
	// virtual clock, enabling time-range queries.
	StartSec, EndSec float64
	// AccLoss is the offline engine's workload accuracy loss of Enc, which
	// it caches per segment when it recodes it (0 while lossless). Engine
	// state like Sketch: not persisted.
	AccLoss float64
	// Sketch is what the offline engine took off the raw segment at ingest
	// so that it need not keep the segment: the objective's reference
	// answers (core.Evaluator.Reference) followed by each lossy arm's
	// feasibility floor, a few dozen bytes where the raw is 8 per point.
	// The engine keeps the answers per segment and each distinct floor
	// vector once, and joins them into a copy of the caller's own when it
	// hands out an Entry. Nil when the objective has no accuracy term and
	// on entries restored from a dump. It is engine working state, opaque
	// to the pool: never counted against the storage budget, persisted or
	// shipped.
	Sketch []float64
}

// Policy orders segments for compression and recoding. It keys on slots:
// small non-negative integers that its owner assigns, one to each segment
// it registers, and may reuse once that segment is Removed. A policy can
// therefore keep its state in slices indexed by slot, with no map. The
// offline engine's slot is a row's position in its row chunks; a Pool
// assigns its own. Implementations must be safe for use by a single
// goroutine; their owner serializes access.
type Policy interface {
	// Put registers a (new or re-registered) segment as most recently
	// used.
	Put(slot int32)
	// Get records an access to the segment (queries touch segments,
	// making them unlikely recoding victims under LRU).
	Get(slot int32)
	// Victim returns the next segment to compress more aggressively,
	// without removing it.
	Victim() (int32, bool)
	// Remove forgets the segment.
	Remove(slot int32)
}

// order is the recency list behind LRU and RoundRobin: slots from the next
// recoding victim (front) to the most recently registered (back). Slot s
// links through links[s+1] and links[0] is the sentinel of the circular
// list, so registering a segment allocates nothing beyond the amortised
// growth of the slab, which doubles from the room its owner asked for. An
// untracked slot's prev is -1.
type order struct{ links []link }

type link struct{ prev, next int32 }

// newOrder returns an empty list with room for slots segments.
func newOrder(slots int) order { return order{links: make([]link, 1, 1+max(slots, 0))} }

// node returns slot's index in links and whether slot is tracked.
func (o *order) node(slot int32) (int32, bool) {
	i := slot + 1
	return i, slot >= 0 && int(i) < len(o.links) && o.links[i].prev >= 0
}

// unlink detaches node i from the list.
func (o *order) unlink(i int32) {
	l := o.links[i]
	o.links[l.prev].next, o.links[l.next].prev = l.next, l.prev
}

// linkBack attaches node i before the sentinel, the most-recent end.
func (o *order) linkBack(i int32) {
	last := o.links[0].prev
	o.links[i] = link{prev: last, next: 0}
	o.links[last].next, o.links[0].prev = i, i
}

// touch moves slot to the back and reports whether it was tracked.
func (o *order) touch(slot int32) bool {
	i, ok := o.node(slot)
	if ok {
		o.unlink(i)
		o.linkBack(i)
	}
	return ok
}

// Put implements Policy: a new slot joins at the back, a tracked one moves
// there.
func (o *order) Put(slot int32) {
	if o.touch(slot) {
		return
	}
	for len(o.links) <= int(slot)+1 {
		if len(o.links) == cap(o.links) {
			// Double. append grows a slab this size by about a quarter
			// and rounds up to a size class, which takes more steps to
			// reach a budget's worth of slots and ends further past it.
			o.links = append(make([]link, 0, 2*len(o.links)), o.links...)
		}
		o.links = append(o.links, link{prev: -1})
	}
	o.linkBack(slot + 1)
}

// Victim implements Policy: the front of the list.
func (o *order) Victim() (int32, bool) {
	if i := o.links[0].next; i != 0 {
		return i - 1, true
	}
	return 0, false
}

// Remove implements Policy.
func (o *order) Remove(slot int32) {
	if i, ok := o.node(slot); ok {
		o.unlink(i)
		o.links[i].prev = -1
	}
}

// LRU is the paper's default policy: least-recently-used segments are
// recoded first, so hot segments keep their fidelity.
type LRU struct{ order }

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return NewLRUFor(0) }

// NewLRUFor returns an empty LRU policy with room for slots segments
// before its recency list grows: an owner that knows about how many it
// will hold saves the doublings up to that.
func NewLRUFor(slots int) *LRU { return &LRU{newOrder(slots)} }

// Get implements Policy: an access makes the segment most recently used.
func (l *LRU) Get(slot int32) { l.touch(slot) }

// RoundRobin recodes strictly oldest-first regardless of access pattern,
// matching RRDTool/TVStore behaviour; kept for the LRU ablation. A (re-)Put
// still moves the segment to the back of the cycle, so recoding rotates
// round-robin through the pool; only accesses are ignored — that is what
// distinguishes this policy from LRU.
type RoundRobin struct{ order }

// NewRoundRobin returns an empty round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{newOrder(0)} }

// Get implements Policy: accesses do not affect ordering.
func (*RoundRobin) Get(int32) {}

// Pool is a compressed buffer pool for callers that key segments by ID:
// entries indexed by segment id with a compression-ordering policy, each
// given the next policy slot. The offline engine does not use it: its rows
// are its index (DESIGN.md §10).
type Pool struct {
	mu      sync.Mutex
	slots   map[uint64]int32 // by segment id
	entries []*Entry         // by slot
	policy  Policy
}

// NewPool builds a pool with the given policy (nil selects LRU).
func NewPool(policy Policy) *Pool {
	if policy == nil {
		policy = NewLRU()
	}
	return &Pool{slots: make(map[uint64]int32), policy: policy}
}

// Put inserts or replaces an entry and marks it most recently used.
func (p *Pool) Put(e *Entry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot, ok := p.slots[e.ID]
	if !ok {
		slot = int32(len(p.entries))
		p.entries = append(p.entries, nil)
		p.slots[e.ID] = slot
	}
	p.entries[slot] = e
	p.policy.Put(slot)
}

// Victim returns the next recoding victim per the policy.
func (p *Pool) Victim() (*Entry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot, ok := p.policy.Victim()
	if !ok {
		return nil, false
	}
	return p.entries[slot], true
}

// Touch re-registers the entry as most recently used (after recoding, the
// segment moves to the back of the list, paper §IV-F).
func (p *Pool) Touch(id uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if slot, ok := p.slots[id]; ok {
		p.policy.Put(slot)
	}
}
