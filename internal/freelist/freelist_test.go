package freelist

import (
	"runtime"
	"slices"
	"testing"
)

// TestListBounds: Get hands back the workspace put back last, Put keeps at
// most the GOMAXPROCS New saw idle workspaces and none above MaxBytes, and
// a collection takes nothing from the list.
func TestListBounds(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	l := New(func(b *[]byte) int { return cap(*b) })
	runtime.GOMAXPROCS(prev) // the bound is what New saw
	if b := l.Get(); b == nil || *b != nil {
		t.Fatalf("an empty list's Get = %v, want a new zero workspace", b)
	}
	bufs := make([]*[]byte, 5)
	for i := range bufs {
		b := make([]byte, 0, 10*(i+1))
		bufs[i] = &b
	}
	big := make([]byte, 0, MaxBytes+1)
	l.Put(&big)
	for _, b := range bufs {
		l.Put(b)
	}
	runtime.GC()
	runtime.GC()
	if got := l.Sizes(); !slices.Equal(got, []int{10, 20, 30}) {
		t.Fatalf("idle sizes %v, want [10 20 30]: built at three Ps, the outsized one and the two past the bound dropped", got)
	}
	if b := l.Get(); b != bufs[2] {
		t.Fatalf("Get returned a %d-byte workspace, want the last one kept (30)", cap(*b))
	}
}
