package core

import (
	"runtime"
	"testing"
)

// BenchmarkOfflineEpochs runs offline_recode epochs back to back, each a
// fresh engine built without a Registry taking 4 096 CBF segments, and
// forces no collection: the runtime's own GC pacing decides which pooled
// scratch outlives an epoch. cmd/adaedge-e2e's offline_recode workload
// collects twice after every epoch to read its live heap, so a pooling
// change read there is read under the instrument's pacing; this reads it
// under the product's. It reports allocations and bytes per segment, the
// collections the run took and the mean heap at the end of an epoch:
//
//	go test -run '^$' -bench OfflineEpochs -benchtime 40x -cpu 2 ./internal/core
func BenchmarkOfflineEpochs(b *testing.B) {
	const epoch = offlineRecodeEpoch
	cfg := offlineRecodeConfig(b, nil)
	segs := cbfSegments(b, epoch, 11)
	var before, ms runtime.MemStats
	var heap uint64
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewOfflineEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range segs {
			if err := eng.Ingest(s.Values, s.Label); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		heap += ms.HeapAlloc
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(ms.Mallocs-before.Mallocs)/(n*epoch), "allocs/segment")
	b.ReportMetric(float64(ms.TotalAlloc-before.TotalAlloc)/(n*epoch), "B/segment")
	b.ReportMetric(float64(ms.NumGC-before.NumGC), "gc-cycles")
	b.ReportMetric(float64(heap)/n/(1<<20), "heap-MB/epoch-end")
}
