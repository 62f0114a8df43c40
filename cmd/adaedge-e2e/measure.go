package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

var clockBase = time.Now()

// now is monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(clockBase)) }

// cpuNow is the process's user+system CPU time in nanoseconds: what a
// single-core device would actually pay, whichever goroutine spent it.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// mark is one slice boundary of a timed phase.
type mark struct {
	wall, cpu int64
	mallocs   uint64
}

func markNow(wall int64) mark { return mark{wall, cpuNow(), readHeap().mallocs} }

// recorder collects one timed phase. Exactly one goroutine calls deliver
// (the collector's sink for online workloads, the ingest loop offline);
// the device goroutine reads the fields only after the phase has drained.
type recorder struct {
	sliceLen int64
	trace    bool    // a phase of the traced run
	firstID  uint64  // the phase's first segment
	n        int64   // deliveries
	marks    []mark  // marks[0] is the phase start, then one per full slice
	lat      []int64 // delivery latencies in arrival order; nil when not kept
	dropped  int64   // latencies not kept because lat was full
}

// traced reports whether segment id keeps its full timeline: in the
// traced run, the segments of every second slice. The slices between are
// the reference bench.trace_overhead_share is measured against; they see
// the same minutes of the machine, so the difference is the tracing and
// not the machine's drift. One device's segments are delivered in ID
// order, so a slice of deliveries is also a run of consecutive IDs.
func (r *recorder) traced(id uint64) bool {
	return r.trace && int64(id-r.firstID)/r.sliceLen&1 == 1
}

// maxSamples bounds the latencies one phase keeps (8 MB). A lockstep
// phase would need a sub-8µs path for a whole run to fill it.
const maxSamples = 1 << 20

func newRecorder(sliceLen int, keepLatency bool) *recorder {
	r := &recorder{sliceLen: int64(sliceLen), marks: make([]mark, 0, 4096)}
	if keepLatency {
		r.lat = make([]int64, 0, maxSamples)
	}
	return r
}

func (r *recorder) start() { r.marks = append(r.marks, markNow(now())) }

// deliver records one delivery that completed at time t.
func (r *recorder) deliver(latency, t int64) {
	r.n++
	if r.lat != nil {
		if len(r.lat) < cap(r.lat) {
			r.lat = append(r.lat, latency)
		} else {
			r.dropped++
		}
	}
	if r.n%r.sliceLen == 0 {
		r.marks = append(r.marks, markNow(t))
	}
}

// rates returns the median over full slices of deliveries per second, CPU
// microseconds per delivery and heap allocations per delivery. The
// median trims GC cycles, noisy-neighbour bursts and the bandit's
// settling-in, all of which a whole-phase mean would keep. A phase too
// short for one full slice is taken whole, ending at end.
func (r *recorder) rates(end mark) (perSec, cpuUs, allocs float64, slices int) {
	thr, cpu, mal := r.slices(end)
	return median(thr), median(cpu), median(mal), len(r.marks) - 1
}

// slices returns each full slice's deliveries per second, CPU
// microseconds per delivery and allocations per delivery, in order.
func (r *recorder) slices(end mark) (thr, cpu, mal []float64) {
	marks, per := r.marks, float64(r.sliceLen)
	if len(marks) < 2 {
		if len(marks) == 0 || r.n == 0 {
			return nil, nil, nil
		}
		marks, per = []mark{marks[0], end}, float64(r.n)
	}
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		thr = append(thr, per/(float64(b.wall-a.wall)/1e9))
		cpu = append(cpu, float64(b.cpu-a.cpu)/1e3/per)
		mal = append(mal, float64(b.mallocs-a.mallocs)/per)
	}
	return thr, cpu, mal
}

// chunkQuantiles cuts samples into consecutive chunks and returns the
// q-quantile of each, in microseconds. Fewer samples than one chunk are
// treated as a single chunk.
func chunkQuantiles(samples []int64, q float64, chunk int) []float64 {
	if len(samples) == 0 {
		return nil
	}
	if chunk <= 0 || len(samples) < chunk {
		chunk = len(samples)
	}
	buf := make([]int64, chunk)
	var per []float64
	for off := 0; off+chunk <= len(samples); off += chunk {
		copy(buf, samples[off:off+chunk])
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		per = append(per, float64(buf[quantileIndex(chunk, q)])/1e3)
	}
	return per
}

// chunkP50 is the median over chunks of each chunk's median: one burst of
// slow samples moves one chunk, not the reported number.
func chunkP50(samples []int64, chunk int) float64 {
	return median(chunkQuantiles(samples, 0.50, chunk))
}

// chunkP99 is the 10th percentile over chunks of each chunk's 99th
// percentile. A chunk is one pass over the pool, so the program's own
// stalls (a lossless re-probe every 50 segments, a recode cascade) recur
// in every chunk alike; what the shared machine adds to a tail comes in
// bursts and only ever lengthens it, so the quietest tenth of the run is
// where the program's tail shows.
func chunkP99(samples []int64) float64 {
	per := chunkQuantiles(samples, 0.99, poolSegments)
	if len(per) == 0 {
		return 0
	}
	sort.Float64s(per)
	return per[len(per)/10]
}

func quantileIndex(n int, q float64) int {
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the default
// exclusive method), so -repeat reports the spread the way the
// acceptance procedure computes it. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// heapSnapshot is the slice of runtime.MemStats the metrics use.
type heapSnapshot struct {
	mallocs, totalAlloc, pauseNs uint64
	numGC                        uint32
	heapAlloc                    uint64
}

func readHeap() heapSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapSnapshot{m.Mallocs, m.TotalAlloc, m.PauseTotalNs, m.NumGC, m.HeapAlloc}
}

// liveHeap returns the bytes reachable right now. Two collections, so
// what sync.Pools dropped into their victim caches is gone as well.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readHeap().heapAlloc
}
