package core

import "sync"

// Trial-buffer recycling for the decision loop.
//
// A segment decision in the lossless phase runs up to a dozen codec
// trials, a lossy one an encode and a decode; without recycling each
// trial allocates its encode buffer (and, for lossy arms, a decode slice)
// and drops it on the floor. The pools below keep those buffers
// circulating: trials carry their pool wrapper through losslessTrial /
// lossyTrial so recycling a trial is a pointer hand-back, never an
// allocation. No trial buffer leaves the engine: Process copies the
// winner's bytes into the engine's payload slab (OnlineEngine.carve) and
// then recycles the winner like any other trial, so a caller that keeps
// every payload, as an uplink spool does, leaves the pools whole.
//
// Ownership rules (DESIGN.md §10):
//
//   - A trial's buffers belong to the trial until it is released. Release
//     happens at exactly one site per trial: lossless trials in the
//     decision loop, a loser on the spot and the winner after its copy, and
//     the lossy winner's encode and decode buffers when Process returns,
//     after the copy and the oracle's observe pass. On oracle-sampled
//     decisions the lossless trials are not released at all: the oracle
//     reads the noted trials after the loop, and they are left to the
//     garbage collector.
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

// release returns a lossless trial's encode buffer to the pool: a loser's,
// or the winner's once its bytes are in the payload slab. Safe on trials
// that never had a wrapper (error trials) and on already-released copies.
func (t *losslessTrial) release() {
	if t.buf == nil {
		return
	}
	t.buf.b = t.enc.Data
	encBufPool.Put(t.buf)
	t.buf = nil
	t.enc.Data = nil // poison: the encoding is dead after release
}

// engineScratch holds slices reused across segments by the decision
// goroutine.
type engineScratch struct {
	mask       []bool
	pendingEnc *encBuf
	pendingDec *decBuf
}

// boolMask returns a length-n mask with every entry set to fill, reusing
// the scratch backing array.
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

// parkLossy defers the release of the lossy winner's encode and decode
// buffers to the end of the current process call — after the payload copy
// and the oracle's observe pass, their last readers.
func (s *engineScratch) parkLossy(t *lossyTrial) {
	s.pendingEnc, s.pendingDec = t.buf, t.dec
}

// flush releases the parked buffers, if any.
func (s *engineScratch) flush() {
	if s.pendingEnc != nil {
		encBufPool.Put(s.pendingEnc)
		s.pendingEnc = nil
	}
	if s.pendingDec != nil {
		decBufPool.Put(s.pendingDec)
		s.pendingDec = nil
	}
}
