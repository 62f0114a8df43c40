package compress

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/freelist"
)

// scratchList is one of the package's free lists, seen from a test.
type scratchList struct {
	name  string
	sizes func() []int
	drain func()
}

func listOf[T any](name string, l *freelist.List[T]) scratchList {
	return scratchList{name, l.Sizes, func() {
		for range l.Sizes() {
			l.Get()
		}
	}}
}

// scratchLists are the package's workspace lists; the DEFLATE writers are
// pooled apart (flateEncs).
func scratchLists() []scratchList {
	return []scratchList{
		listOf("byteScratch", byteScratch),
		listOf("payloadScratch", payloadScratch),
		listOf("inflaters", inflaters),
		listOf("dictScratches", dictScratches),
		listOf("lttbScratches", lttbScratches),
		listOf("fftScratches", fftScratches),
	}
}

// exerciseCodec runs every entry point of c that takes scratch: Compress,
// a decode and, for a lossy codec, MinRatio, CompressRatio and a Recode.
func exerciseCodec(t *testing.T, c Codec, seg []float64) {
	enc, err := Compress(c, seg)
	if err != nil {
		t.Error(err)
		return
	}
	if dec, err := c.DecompressInto(nil, enc); err != nil || len(dec) != len(seg) {
		t.Errorf("%s: decoded %d points of %d, err %v", c.Name(), len(dec), len(seg), err)
	}
	lc, ok := c.(LossyCodec)
	if !ok {
		return
	}
	lc.MinRatio(seg)
	at, err := lc.CompressRatio(seg, 0.2)
	if err != nil {
		return // below the codec's floor on this segment
	}
	if rc, ok := c.(Recoder); ok {
		_, _ = rc.Recode(at, 0.1)
	}
}

// TestScratchListsBounded pins the free lists' bounds, which are what make
// keeping workspaces through every collection affordable. Every default
// codec encodes and decodes from 4×GOMAXPROCS goroutines at once; then
// each list holds at most GOMAXPROCS workspaces and at most 64 KiB in all.
// After one 200 000-point encode per codec, which grows every kind of
// workspace but the inflater's past freelist.MaxBytes, no list holds one
// above that cap.
func TestScratchListsBounded(t *testing.T) {
	procs := runtime.GOMAXPROCS(0) // what the lists' New saw
	lists := scratchLists()
	for _, l := range lists {
		l.drain() // what earlier tests left, outsized segments included
	}
	reg := DefaultRegistry(4)
	names := reg.Names()
	segs, _ := datasets.CBF(32, datasets.CBFConfig{Seed: 5})
	var wg sync.WaitGroup
	for g := 0; g < 4*procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 * len(names) {
				c, _ := reg.Lookup(names[(g+i)%len(names)])
				exerciseCodec(t, c, segs[(g+i)%len(segs)])
			}
		}()
	}
	wg.Wait()
	for _, l := range lists {
		sizes := sumAndMax(l.sizes())
		if sizes.n > procs || sizes.total > 64<<10 {
			t.Errorf("%s holds %d workspaces of %d bytes in all, want at most %d and 64 KiB", l.name, sizes.n, sizes.total, procs)
		} else {
			t.Logf("%s holds %d workspaces of %d bytes in all", l.name, sizes.n, sizes.total)
		}
	}

	big := allocSignal(200_000)
	for _, name := range names {
		c, _ := reg.Lookup(name)
		if _, err := Compress(c, big); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lc, ok := c.(LossyCodec); ok {
			if _, err := lc.CompressRatio(big, 0.05); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	for _, l := range lists {
		if sizes := sumAndMax(l.sizes()); sizes.max > freelist.MaxBytes {
			t.Errorf("%s keeps a %d-byte workspace after 200 000-point encodes, cap %d", l.name, sizes.max, freelist.MaxBytes)
		}
	}
}

type sizeSummary struct{ n, total, max int }

func sumAndMax(sizes []int) sizeSummary {
	s := sizeSummary{n: len(sizes)}
	for _, b := range sizes {
		s.total += b
		s.max = max(s.max, b)
	}
	return s
}
