package store

import (
	"sync"

	"repro/internal/compress"
)

// Entry is a compressed segment resident in the pool. It is 128 bytes,
// which the size-class arithmetic of the offline engine's entry chunks
// assumes (TestEntryIs128Bytes): a field added here must take a word from
// another.
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
	// AccLoss is the offline engine's workload accuracy loss of Enc, set
	// when it recodes the segment (0 while lossless). Engine state like
	// Sketch: not persisted.
	AccLoss float64
	// Sketch is what the offline engine took off the raw segment at ingest
	// so that it need not keep the segment: the objective's reference
	// answers (core.Evaluator.Reference) followed by each lossy arm's
	// feasibility floor, a few dozen bytes where the raw is 8 per point.
	// Nil when the objective has no accuracy term and on entries restored
	// from a dump. It is engine working state, opaque to the pool: never
	// counted against the storage budget, persisted or shipped.
	Sketch []float64
}

// Policy orders segments for compression and recoding. Implementations
// must be safe for use by a single goroutine; Store serializes access.
type Policy interface {
	// Put registers a (new or re-registered) segment as most recently
	// used.
	Put(id uint64)
	// Get records an access to the segment (queries touch segments,
	// making them unlikely recoding victims under LRU).
	Get(id uint64)
	// Victim returns the next segment to compress more aggressively,
	// without removing it.
	Victim() (uint64, bool)
	// Remove forgets the segment.
	Remove(id uint64)
	// Len returns the number of tracked segments.
	Len() int
}

// order is the recency list behind LRU and RoundRobin: segment ids from
// the next recoding victim (front) to the most recently registered (back).
// Nodes live in one slab and link by slab index — nodes[0] is the sentinel
// of the circular list — so registering a segment allocates nothing beyond
// the amortised growth of the slab and the index map.
type order struct {
	nodes []orderNode
	free  int32 // head of the freed-slot chain through next; 0 = empty
	index map[uint64]int32
}

type orderNode struct {
	id         uint64
	prev, next int32
}

func newOrder() order {
	return order{nodes: make([]orderNode, 1), index: make(map[uint64]int32)}
}

// unlink detaches slot i from the list, leaving the slot itself alone.
func (o *order) unlink(i int32) {
	n := o.nodes[i]
	o.nodes[n.prev].next, o.nodes[n.next].prev = n.next, n.prev
}

// linkBack attaches slot i before the sentinel, the most-recent end.
func (o *order) linkBack(i int32) {
	last := o.nodes[0].prev
	o.nodes[i].prev, o.nodes[i].next = last, 0
	o.nodes[last].next, o.nodes[0].prev = i, i
}

// touch moves id to the back and reports whether it was tracked.
func (o *order) touch(id uint64) bool {
	i, ok := o.index[id]
	if ok {
		o.unlink(i)
		o.linkBack(i)
	}
	return ok
}

// Put implements Policy: a new id joins at the back, a tracked one moves
// there.
func (o *order) Put(id uint64) {
	if o.touch(id) {
		return
	}
	i := o.free
	if i != 0 {
		o.free = o.nodes[i].next
	} else {
		i = int32(len(o.nodes))
		o.nodes = append(o.nodes, orderNode{})
	}
	o.nodes[i].id = id
	o.index[id] = i
	o.linkBack(i)
}

// Victim implements Policy: the front of the list.
func (o *order) Victim() (uint64, bool) {
	if i := o.nodes[0].next; i != 0 {
		return o.nodes[i].id, true
	}
	return 0, false
}

// Remove implements Policy.
func (o *order) Remove(id uint64) {
	if i, ok := o.index[id]; ok {
		o.unlink(i)
		delete(o.index, id)
		o.nodes[i].next, o.free = o.free, i
	}
}

// Len implements Policy.
func (o *order) Len() int { return len(o.index) }

// LRU is the paper's default policy: least-recently-used segments are
// recoded first, so hot segments keep their fidelity.
type LRU struct{ order }

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{newOrder()} }

// Get implements Policy: an access makes the segment most recently used.
func (l *LRU) Get(id uint64) { l.touch(id) }

// RoundRobin recodes strictly oldest-first regardless of access pattern,
// matching RRDTool/TVStore behaviour; kept for the LRU ablation. A (re-)Put
// still moves the segment to the back of the cycle, so recoding rotates
// round-robin through the pool; only accesses are ignored — that is what
// distinguishes this policy from LRU.
type RoundRobin struct{ order }

// NewRoundRobin returns an empty round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{newOrder()} }

// Get implements Policy: accesses do not affect ordering.
func (*RoundRobin) Get(uint64) {}

// Pool is the compressed buffer pool: entries indexed by segment id with a
// compression-ordering policy.
type Pool struct {
	mu      sync.Mutex
	entries map[uint64]*Entry
	policy  Policy
}

// NewPool builds a pool with the given policy (nil selects LRU).
func NewPool(policy Policy) *Pool {
	if policy == nil {
		policy = NewLRU()
	}
	return &Pool{entries: make(map[uint64]*Entry), policy: policy}
}

// Put inserts or replaces an entry and marks it most recently used.
func (p *Pool) Put(e *Entry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries[e.ID] = e
	p.policy.Put(e.ID)
}

// Get returns the entry and records the access (the query path).
func (p *Pool) Get(id uint64) (*Entry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[id]
	if ok {
		p.policy.Get(id)
	}
	return e, ok
}

// Peek returns the entry without touching the policy (the recoding path).
func (p *Pool) Peek(id uint64) (*Entry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[id]
	return e, ok
}

// Victim returns the next recoding victim per the policy.
func (p *Pool) Victim() (*Entry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		id, ok := p.policy.Victim()
		if !ok {
			return nil, false
		}
		if e, ok := p.entries[id]; ok {
			return e, true
		}
		// Stale policy entry; drop and retry.
		p.policy.Remove(id)
	}
}

// Touch re-registers the entry as most recently used (after recoding, the
// segment moves to the back of the list, paper §IV-F).
func (p *Pool) Touch(id uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.entries[id]; ok {
		p.policy.Put(id)
	}
}

// Remove deletes the entry.
func (p *Pool) Remove(id uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.entries, id)
	p.policy.Remove(id)
}

// Len returns the number of entries.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// TotalBytes sums the compressed sizes of all entries.
func (p *Pool) TotalBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for _, e := range p.entries {
		total += int64(e.Enc.Size())
	}
	return total
}

// Each calls fn for every entry in unspecified order; fn must not mutate
// the pool.
func (p *Pool) Each(fn func(*Entry)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		fn(e)
	}
}
