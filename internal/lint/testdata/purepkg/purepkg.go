// Package purepkg is a codecpurity fixture: a fake codec package seeded
// with one violation of every purity rule plus the legal patterns that
// must stay diagnostic-free.
package purepkg

import (
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"
)

var cache = map[string]int{}

var hits int

// Compress violates every purity rule.
func Compress(values []float64) int {
	t := time.Now() // want `clock access time\.Now`
	_ = t
	n := rand.Intn(10) // want `use of math/rand\.Intn`
	_ = n
	host := os.Getenv("HOST") // want `use of os\.Getenv`
	_ = host
	cache["x"] = 1 // want `write to package-level variable cache`
	hits++         // want `write to package-level variable hits`
	return 0
}

// GzipLevel is mutant CP1 of the mutation table in DESIGN.md §7: a codec
// setting read from the environment. Two devices with the same seed then
// encode differently, and since no test sets the variable, this analyzer
// is the only check that catches it.
func GzipLevel() int {
	level, err := strconv.Atoi(os.Getenv("ADAEDGE_GZIP_LEVEL")) // want `use of os\.Getenv`
	if err != nil {
		return 6
	}
	return level
}

// Scale is pure: time.Duration arithmetic never reads the clock.
func Scale(d time.Duration) time.Duration { return d * 2 }

// Instance state is fine — purity forbids package-level state, not
// receivers.
type Codec struct {
	mu    sync.Mutex
	seen  int
	table map[string]int
}

func (c *Codec) Observe() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	c.table["k"] = c.seen
}

func init() {
	cache["warm"] = 0 // init-time population of package state is allowed
}
