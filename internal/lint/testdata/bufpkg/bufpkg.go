// Package bufpkg is a bufownership fixture: a miniature of the
// internal/core pooled-buffer discipline with every rule violated once,
// plus the sanctioned patterns the analyzer must stay silent on.
package bufpkg

import "sync"

// encBuf and decBuf mirror core's pooled wrappers.
type encBuf struct{ b []byte }

type decBuf struct{ v []float64 }

var encBufPool = sync.Pool{New: func() any { return new(encBuf) }}

func getEncBuf() *encBuf { return encBufPool.Get().(*encBuf) }

// trial is a carrier: an unexported struct holding a wrapper, like
// losslessTrial. Legal.
type trial struct {
	enc []byte
	buf *encBuf
}

func (t *trial) release() {
	if t.buf == nil {
		return
	}
	encBufPool.Put(t.buf)
	t.buf = nil
}

func (t *trial) handOff() { t.buf = nil }

// scratch carries a decode wrapper; also legal (unexported).
type scratch struct {
	pending *decBuf
}

func (s *scratch) releaseDecoded() { s.pending = nil }

// Published leaks a pooled wrapper through an exported type.
type Published struct {
	Buf *encBuf // want `pooled wrapper field in exported struct Published`
}

// global parks a wrapper outside the pool.
var global *encBuf

// Escapes demonstrates every escape shape.
func Escapes(t trial) {
	eb := getEncBuf()
	global = eb // want `pooled wrapper stored in package-level variable global`

	ch := make(chan *encBuf) // want `channel of pooled wrapper`
	ch <- eb                 // want `pooled wrapper sent on a channel`

	go consume(eb) // want `pooled wrapper passed to a go-launched goroutine`

	go func() {
		use(eb.b) // want `pooled wrapper eb captured by a go-launched closure`
	}()
}

// DoubleRelease releases the same trial twice in one sequence.
func DoubleRelease(t trial) {
	t.release()
	t.release() // want `t released twice`
}

// UseAfterRelease reads the trial after its release.
func UseAfterRelease(t trial) []byte {
	t.release()
	return t.enc // want `use of t\.enc after its release`
}

// HandOffAfterRelease is the mixed double: the wrapper cannot be both
// recycled and parked.
func HandOffAfterRelease(t trial) {
	t.release()
	t.handOff() // want `t released twice`
}

// BranchRelease is sanctioned: each branch is a distinct single site, so
// the lexical tracker must not cross the block boundary.
func BranchRelease(t trial, won bool) {
	if won {
		t.handOff()
	} else {
		t.release()
	}
}

// Rearm is sanctioned: a reassignment installs a fresh trial, so the later
// use is live again.
func Rearm(t trial) []byte {
	t.release()
	t = fresh()
	return t.enc
}

// DeferredRelease is sanctioned: the deferred call runs after every use.
func DeferredRelease(t trial) []byte {
	defer t.release()
	return t.enc
}

func fresh() trial          { return trial{} }
func consume(eb *encBuf)    { use(eb.b) }
func use(b []byte)          { _ = b }
func sink(v []float64) bool { return len(v) > 0 }

// Retainer is the codec-side rule: Compress*/Decompress*/Recode* methods
// must not store caller buffers.
type Retainer struct {
	keep []byte
	vals []float64
}

// CompressInto retains the caller's dst slice.
func (r *Retainer) CompressInto(dst []byte, values []float64) []byte {
	r.keep = dst[:0] // want `CompressInto stores caller buffer dst in the receiver`
	return append(dst[:0], 0)
}

// Gorilla is mutant BO3 of the mutation table in DESIGN.md §7: a codec
// that keeps dst in its receiver. No test notices: the retained slice is
// never read, and -race stays quiet in TestCompressConcurrentCallers, where
// every call's scratch passes through a sync.Pool. This analyzer is the
// only check that catches it.
type Gorilla struct{ last []byte }

func (g *Gorilla) CompressInto(dst []byte, values []float64) []byte {
	g.last = dst // want `CompressInto stores caller buffer dst in the receiver`
	return append(dst[:0], 0)
}

// DecompressInto retains the values buffer through a package-level var.
var lastOut []float64

func (r *Retainer) DecompressInto(out []float64) []float64 {
	lastOut = out // want `DecompressInto stores caller buffer out in a package-level variable`
	return out
}

// localOnly is out of scope by method name (no Compress/Decompress/Recode
// prefix), so bufownership leaves it alone.
func (r *Retainer) localOnly(dst []byte) []byte {
	tmp := dst[:0]
	return append(tmp, 1)
}

// CompressLocal borrows dst but only through locals: sanctioned.
func (r *Retainer) CompressLocal(dst []byte, values []float64) []byte {
	tmp := append(dst[:0], 2)
	return tmp
}
