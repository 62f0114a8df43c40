package obs

import (
	"math"
	"sync"
	"testing"
)

// TestConcurrentMetrics hammers one counter, gauge and histogram from N
// writer goroutines while a reader snapshots continuously, then asserts
// the exact totals. Run under -race in CI, this is the substrate's
// race-cleanliness proof.
func TestConcurrentMetrics(t *testing.T) {
	const writers, perWriter = 16, 10_000
	reg := NewRegistry()
	ctr := reg.Counter("test.counter")
	g := reg.Gauge("test.gauge")
	h := reg.Histogram("test.hist", []float64{0.25, 0.5, 0.75})

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := reg.Snapshot()
				if c := snap.Counters["test.counter"]; c < 0 || c > writers*perWriter {
					t.Errorf("snapshot counter out of range: %d", c)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ctr.Inc()
				g.Set(float64(w))
				h.Observe(float64(i%4) / 4.0) // 0, .25, .5, .75 round-robin
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := ctr.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
	// Each writer observes perWriter/4 of each value 0, .25, .5, .75.
	wantSum := float64(writers) * (perWriter / 4) * (0 + 0.25 + 0.5 + 0.75)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
	snap := reg.Snapshot()
	hs := snap.Histograms["test.hist"]
	// Bucket i counts v <= bounds[i]: 0 and 0.25 share bucket 0, 0.5 and
	// 0.75 land in buckets 1 and 2, the overflow bucket stays empty.
	quarter := int64(writers * perWriter / 4)
	want := []int64{2 * quarter, quarter, quarter, 0}
	for i, c := range hs.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, c, want[i], hs.Counts)
		}
	}
	if gv := snap.Gauges["test.gauge"]; gv < 0 || gv >= writers {
		t.Fatalf("gauge = %v, want a writer index", gv)
	}
}

// TestNilSafety proves a nil Observer — the disabled configuration — is
// inert at every level: nil registries hand out nil metrics whose methods
// do nothing, and nil rings ignore everything.
func TestNilSafety(t *testing.T) {
	var o *Observer
	reg := o.Registry()
	if reg != nil {
		t.Fatal("nil observer returned a registry")
	}
	reg.Counter("x").Inc()
	reg.Counter("x").Add(5)
	reg.Gauge("y").Set(1)
	reg.Histogram("z", nil).Observe(1)
	if v := reg.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	if snap := reg.Snapshot(); len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	if ring := o.Ring(); ring != nil {
		t.Fatal("nil observer returned a ring")
	}
	o.Ring().Record(Event{})
	if n := o.Ring().Len(); n != 0 {
		t.Fatalf("nil ring len = %d", n)
	}
}

// TestHistogramBuckets pins the bucket boundary semantics: bucket i
// counts v <= bounds[i], the last bucket counts the overflow.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 1, 1.5, 10, 11} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []int64{2, 2, 1} // <=1: {0.5, 1}; <=10: {1.5, 10}; >10: {11}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", s.Counts, want)
		}
	}
	if s.Count != 5 || s.Sum != 24 {
		t.Fatalf("count/sum = %d/%v, want 5/24", s.Count, s.Sum)
	}
	if m := s.Mean(); math.Abs(m-4.8) > 1e-12 {
		t.Fatalf("mean = %v, want 4.8", m)
	}
}

// TestRegistryGetOrCreate proves name identity: the same name yields the
// same metric instance, so cached pointers and registry lookups agree.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a, b := reg.Counter("same"), reg.Counter("same")
	if a != b {
		t.Fatal("same-name counters are distinct instances")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("counter identity broken")
	}
	h1 := reg.Histogram("h", []float64{1})
	h2 := reg.Histogram("h", []float64{99, 100}) // bounds ignored on reuse
	if h1 != h2 {
		t.Fatal("same-name histograms are distinct instances")
	}
}
