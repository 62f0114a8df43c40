package core

import (
	"sync"

	"repro/internal/compress"
)

// Trial-buffer recycling for the decision loop.
//
// A segment decision in the lossless phase runs up to a dozen codec
// trials, a lossy one an encode and a decode; without recycling each
// trial allocates its encode buffer (and, for lossy arms, a decode slice)
// and drops it on the floor. The pools below keep those buffers
// circulating: trials carry their pool wrapper through losslessTrial /
// lossyTrial so recycling a rejected trial is a pointer hand-back, never
// an allocation. A lossy trial's encoding is the exception: CompressRatio
// makes one exact-size allocation, the payload, which leaves with the
// decision (DESIGN.md §10), so only its decode slice is pooled.
//
// Ownership rules (DESIGN.md §10):
//
//   - A trial's buffers belong to the trial until it is released. Release
//     happens at exactly one site per trial: losers are released in the
//     decision loop (only when the decision is not oracle-sampled — the
//     oracle reads noted trials later in the same Process call), and the
//     lossy winner's decode slice when Process returns.
//   - The selected trial's encoding escapes to the caller with the
//     returned compress.Encoded and leaves the pool's circulation; its
//     emptied wrapper goes straight back to encBufPool, where the next
//     trial sizes a fresh buffer in it or RecycleEncoded re-arms it with
//     returned bytes. A caller that keeps every payload (an uplink spool)
//     pays one allocation per lossless winner, the payload, and none for
//     the wrapper.
//   - Releasing is idempotent per trial copy (the wrapper pointer is
//     nil'ed), but distinct copies of one trial share a wrapper — never
//     release the same trial through two copies.
//
// The pools are shared by every engine in the process; sync.Pool makes
// that (and the oracle's shadow-goroutine trials) race-safe.

// encBuf wraps a trial encode buffer so pool round trips are pointer-sized.
type encBuf struct{ b []byte }

// decBuf wraps a lossy trial's decode slice.
type decBuf struct{ v []float64 }

var encBufPool = sync.Pool{New: func() any { return new(encBuf) }}
var decBufPool = sync.Pool{New: func() any { return new(decBuf) }}

func getEncBuf() *encBuf { return encBufPool.Get().(*encBuf) }
func getDecBuf() *decBuf { return decBufPool.Get().(*decBuf) }

// release returns a rejected trial's encode buffer to the pool. Safe on
// trials that never had a wrapper (error trials, fallback codecs) and on
// already-released copies.
//
// adaedge:decision-goroutine
func (t *losslessTrial) release() {
	if t.buf == nil {
		return
	}
	t.buf.b = t.enc.Data
	encBufPool.Put(t.buf)
	t.buf = nil
	t.enc.Data = nil // poison: the encoding is dead after release
}

// handOff returns the wrapper of a trial whose encoding escapes to the
// caller. The buffer itself leaves with the Encoded; only the empty
// wrapper goes back to the pool.
//
// adaedge:decision-goroutine
func (t *losslessTrial) handOff() {
	if t.buf == nil {
		return
	}
	t.buf.b = nil
	encBufPool.Put(t.buf)
	t.buf = nil
}

// RecycleEncoded hands an Encoded's backing buffer back to the trial
// pools. Callers that drop every reference to enc.Data once a segment is
// accounted (benchmark drivers, metrics-only consumers) can call this
// after each Process to make the steady-state decision loop
// allocation-free. Callers that retain the bytes — an uplink spool,
// a storage pool — must NOT recycle: the buffer would be overwritten by
// a later trial while still referenced.
func RecycleEncoded(enc compress.Encoded) {
	if cap(enc.Data) == 0 {
		return
	}
	eb := getEncBuf()
	eb.b = enc.Data
	encBufPool.Put(eb)
}

// engineScratch holds slices reused across segments by the decision
// goroutine.
type engineScratch struct {
	mask       []bool
	pendingDec *decBuf
}

// boolMask returns a length-n mask with every entry set to fill, reusing
// the scratch backing array.
//
// adaedge:decision-goroutine
func (s *engineScratch) boolMask(n int, fill bool) []bool {
	if cap(s.mask) < n {
		s.mask = make([]bool, n)
	}
	m := s.mask[:n]
	for i := range m {
		m[i] = fill
	}
	return m
}

// parkDec defers a decode buffer's release to the end of the current
// process call — after the oracle's observe pass, its last reader.
//
// adaedge:decision-goroutine
func (s *engineScratch) parkDec(d *decBuf) {
	s.pendingDec = d
}

// flushDec releases the parked decode buffer, if any.
//
// adaedge:decision-goroutine
func (s *engineScratch) flushDec() {
	if s.pendingDec != nil {
		decBufPool.Put(s.pendingDec)
		s.pendingDec = nil
	}
}
