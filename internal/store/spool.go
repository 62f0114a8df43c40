package store

import (
	"errors"
	"sort"
	"sync"
)

// Spool is the bounded store-and-forward queue behind the resilient
// uplink: segments awaiting acknowledgement from the collector, in
// segment-id order. Append is the at-least-once half of the delivery
// contract — an entry stays spooled (and is retransmitted on every
// reconnect) until the collector's cumulative ACK covers it.
//
// The spool is bounded in both segments and bytes; when full, Append
// fails and the caller sheds (an unbounded queue on a device with a dead
// link is just a slow crash). Crossing the high-water mark up or down
// fires the pressure callback, ResilientConfig.OnPressure. A caller may
// wire it to the online engine's Retarget, as examples/intermittent-link
// does, so the engine compresses to a slower link's target instead of
// letting the backlog grow unboundedly.
//
// Pending entries live by value in a ring: Append copies the caller's
// Entry into the next free slot and an ACK zeroes the slots it releases
// (dropping their payload references), so a spooled segment costs no heap
// object of its own. The ring starts empty, doubles when full, never past
// the segment bound, and does not shrink: it is standing memory the size
// of the deepest backlog seen. Head and HeadAfter return copies, not
// pointers into the ring — the sender works on an entry outside the lock
// while ACKs release slots and Append reuses them.
type Spool struct {
	maxSegments int
	maxBytes    int64
	highWater   float64
	onPressure  func(over bool)

	mu sync.Mutex
	// The count pending entries are ring[head], ring[head+1], ... wrapping
	// at len(ring), ascending ID; every other slot is zero. Guarded by mu.
	ring    []Entry
	head    int    // guarded by mu
	count   int    // guarded by mu
	bytes   int64  // sum of entry payload sizes; guarded by mu
	over    bool   // high-water state; guarded by mu
	acked   uint64 // all IDs < acked are confirmed delivered; guarded by mu
	dropped int    // Append rejections; guarded by mu
}

// minSpoolRing is the ring's first size.
const minSpoolRing = 16

// ErrSpoolFull is returned by Append when the spool bound is reached.
var ErrSpoolFull = errors.New("store: spool full")

// NewSpool builds a spool bounded by maxSegments entries and maxBytes
// payload bytes (either 0 disables that bound; both 0 selects 4096
// segments). highWater in (0,1) sets the pressure mark as a fraction of
// the tighter bound; outside that range it defaults to 0.75. onPressure
// (may be nil) is called outside the spool lock whenever utilization
// crosses the mark, with over reporting the new state.
func NewSpool(maxSegments int, maxBytes int64, highWater float64, onPressure func(over bool)) *Spool {
	if maxSegments <= 0 && maxBytes <= 0 {
		maxSegments = 4096
	}
	if highWater <= 0 || highWater >= 1 {
		highWater = 0.75
	}
	return &Spool{
		maxSegments: maxSegments,
		maxBytes:    maxBytes,
		highWater:   highWater,
		onPressure:  onPressure,
	}
}

// atLocked returns the slot k places after the oldest pending entry: the
// k-th pending entry for k < count, the next free slot for k == count in a
// ring that is not full.
func (s *Spool) atLocked(k int) *Entry {
	i := s.head + k
	if i >= len(s.ring) {
		i -= len(s.ring)
	}
	return &s.ring[i]
}

// growLocked doubles a full ring, up to the segment bound, and unwraps the
// pending entries to its start.
func (s *Spool) growLocked() {
	size := max(2*len(s.ring), minSpoolRing)
	if s.maxSegments > 0 {
		size = min(size, s.maxSegments)
	}
	ring := make([]Entry, size)
	n := copy(ring, s.ring[s.head:])
	copy(ring[n:], s.ring[:s.head])
	s.ring, s.head = ring, 0
}

// utilizationLocked returns the tighter of the segment and byte
// utilizations.
func (s *Spool) utilizationLocked() float64 {
	var u float64
	if s.maxSegments > 0 {
		u = float64(s.count) / float64(s.maxSegments)
	}
	if s.maxBytes > 0 {
		if b := float64(s.bytes) / float64(s.maxBytes); b > u {
			u = b
		}
	}
	return u
}

// pressureLocked recomputes the high-water state and returns a callback
// to run after the lock is released (nil when the state did not change).
func (s *Spool) pressureLocked() func() {
	over := s.utilizationLocked() >= s.highWater
	if over == s.over || s.onPressure == nil {
		s.over = over
		return nil
	}
	s.over = over
	fn := s.onPressure
	return func() { fn(over) }
}

// Append spools a copy of *e. Entries must arrive in ascending ID order
// (the device's segment counter guarantees this).
func (s *Spool) Append(e *Entry) error {
	s.mu.Lock()
	if (s.maxSegments > 0 && s.count >= s.maxSegments) ||
		(s.maxBytes > 0 && s.bytes+int64(e.Enc.Size()) > s.maxBytes) {
		s.dropped++
		s.mu.Unlock()
		return ErrSpoolFull
	}
	if s.count == len(s.ring) {
		s.growLocked()
	}
	*s.atLocked(s.count) = *e
	s.count++
	s.bytes += int64(e.Enc.Size())
	notify := s.pressureLocked()
	s.mu.Unlock()
	if notify != nil {
		notify()
	}
	return nil
}

// Head returns a copy of the oldest unacknowledged entry without removing
// it.
func (s *Spool) Head() (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return Entry{}, false
	}
	return s.ring[s.head], true
}

// HeadAfter returns a copy of the oldest unacknowledged entry with ID > id,
// without removing it. The pipelined uplink uses it as its send cursor:
// after transmitting entry id it asks for the next pending entry strictly
// past it, so in-flight-but-unacked entries are not retransmitted until a
// session break resets the cursor back to Head.
func (s *Spool) HeadAfter(id uint64) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := sort.Search(s.count, func(k int) bool { return s.atLocked(k).ID > id })
	if k == s.count {
		return Entry{}, false
	}
	return *s.atLocked(k), true
}

// AckBelow drops every entry with ID < next (the collector's cumulative
// acknowledgement: all IDs below next were delivered) and returns how
// many entries it released.
func (s *Spool) AckBelow(next uint64) int {
	return s.AckBelowVisit(next, nil)
}

// AckBelowVisit is AckBelow with a per-entry visitor: visit (may be nil)
// is called under the spool lock for each released entry, in ID order,
// before its slot is zeroed. The uplink uses it to close each frame's
// wire.ack span stage with the entry's trace identity; visitors must not
// retain the entry or call back into the spool.
func (s *Spool) AckBelowVisit(next uint64, visit func(*Entry)) int {
	s.mu.Lock()
	released := 0
	for s.count > 0 {
		e := &s.ring[s.head]
		if e.ID >= next {
			break
		}
		s.bytes -= int64(e.Enc.Size())
		if visit != nil {
			visit(e)
		}
		*e = Entry{}
		if s.head++; s.head == len(s.ring) {
			s.head = 0
		}
		s.count--
		released++
	}
	if next > s.acked {
		s.acked = next
	}
	notify := s.pressureLocked()
	s.mu.Unlock()
	if notify != nil {
		notify()
	}
	return released
}

// Acked returns the cumulative acknowledgement watermark: all IDs below
// it are confirmed delivered.
func (s *Spool) Acked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// Len returns the number of pending entries.
func (s *Spool) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Dropped returns how many Append calls were rejected by the bound.
func (s *Spool) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
