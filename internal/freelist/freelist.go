// Package freelist keeps idle workspaces for reuse: a mutex-guarded stack
// any goroutine can take from. A sync.Pool parks an entry on a P no other
// P can take it from and lets everything go within two collections; a
// List keeps what it holds, at most as many workspaces as New saw Ps, none
// larger than MaxBytes.
package freelist

import (
	"runtime"
	"sync"
)

// MaxBytes caps a workspace a List keeps, 1 MiB (131 072 float64s): one
// outsized call, or what a hostile payload inflated to, is left to the
// collector, not kept as if it were the working set.
const MaxBytes = 1 << 20

// List is a bounded free list of *T. Build one with New.
type List[T any] struct {
	size    func(*T) int
	maxIdle int
	mu      sync.Mutex
	idle    []*T
}

// New returns an empty list that keeps at most runtime.GOMAXPROCS(0) idle
// workspaces, as read once here: Put never asks the scheduler. size
// reports the bytes a workspace's slices and maps hold.
func New[T any](size func(*T) int) *List[T] {
	return &List[T]{size: size, maxIdle: runtime.GOMAXPROCS(0)}
}

// Get takes the workspace put back last, or a new zero one when none is
// idle. The caller owns it until Put.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	n := len(l.idle)
	if n == 0 {
		l.mu.Unlock()
		return new(T)
	}
	x := l.idle[n-1]
	l.idle[n-1], l.idle = nil, l.idle[:n-1]
	l.mu.Unlock()
	return x
}

// Put hands x back, which must no longer refer to its caller's bytes. A
// full list or an x above MaxBytes leaves x to the collector.
func (l *List[T]) Put(x *T) {
	if l.size(x) > MaxBytes {
		return
	}
	l.mu.Lock()
	if len(l.idle) < l.maxIdle {
		l.idle = append(l.idle, x)
	}
	l.mu.Unlock()
}

// Sizes reports the size of each workspace the list holds, in the order
// they were put back. It exists for the bounds tests; nothing else reads a
// list's contents.
func (l *List[T]) Sizes() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	sizes := make([]int, len(l.idle))
	for i, x := range l.idle {
		sizes[i] = l.size(x)
	}
	return sizes
}
