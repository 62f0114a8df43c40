package core

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/compress"
	"repro/internal/datasets"
	"repro/internal/ml"
	"repro/internal/obs/quality"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

// Steady-state allocation pin for the online evaluator loop. With the
// codec hot paths allocation-free (internal/compress TestAllocs*), the
// remaining per-segment garbage came from the decision loop itself:
// trial encode buffers, lossy decode slices, arm masks and the bandit's
// candidate lists. The engine now owns one trial encode buffer, one decode
// slice and one arm mask, the policies keep their own scratch, and the
// winner's bytes are copied into the engine's payload slab, so the segment
// loop is allocation-free but for one slab per few dozen segments.
//
// The budget is not zero: the slabs. Anything persistently above it means
// a buffer stopped being reused — exactly the regression this test exists
// to catch. No sync.Pool is on this path, so it runs under -race too.
const onlineLoopAllocBudget = 0.1

func TestAllocsOnlineEvaluatorLoop(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		// Target 1 keeps every segment in the lossless phase, the loop the
		// zero-alloc pass optimizes; the four bit-kernel arms encode
		// without allocating, so the budget measures the loop alone.
		TargetRatioOverride: 1,
		Objective:           SingleTarget(TargetRatio),
		LosslessArms:        []string{"gorilla", "chimp", "sprintz", "buff"},
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A few distinct segments so the loop re-sizes buffers like a real
	// stream would, without any per-iteration generator allocations.
	segs := make([][]float64, 4)
	for s := range segs {
		seg := make([]float64, 128)
		for i := range seg {
			switch {
			case i%5 == 2:
				seg[i] = seg[i-1]
			default:
				seg[i] = float64((i*(s+3))%23)/8 + float64(i)/511
			}
		}
		segs[s] = seg
	}

	step := 0
	run := func() {
		if _, _, err := eng.Process(segs[step%len(segs)], step%2); err != nil {
			t.Fatal(err)
		}
		step++
	}

	// Warm-up: size the trial buffers, converge the bandit, populate stats
	// keys.
	for i := 0; i < 400; i++ {
		run()
	}

	if got := mallocsPerOp(2048, run); got > onlineLoopAllocBudget {
		t.Errorf("online evaluator loop allocates %.3f/op steady-state, budget %v", got, onlineLoopAllocBudget)
	}
}

// TestOnlinePayloadsNeverAlias pins what Process promises about the bytes
// it returns from its shared payload slab, a lossless winner's and a lossy
// one's: the engine never writes them again, and an append to one cannot
// run into the payload carved after it.
func TestOnlinePayloadsNeverAlias(t *testing.T) {
	segs := make([][]float64, 8)
	for s := range segs {
		segs[s] = make([]float64, 128)
		for j := range segs[s] {
			segs[s][j] = float64((j*(s+2))%31)/8 - 1.25
		}
	}
	for _, leg := range []struct {
		name   string
		target float64
		arms   []string
	}{
		{"lossless", 1, []string{"gorilla", "chimp", "sprintz", "buff"}},
		// Gorilla alone cannot reach 0.10 on these segments.
		{"lossy", 0.10, []string{"gorilla"}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			eng, err := NewOnlineEngine(Config{
				TargetRatioOverride: leg.target,
				Objective:           SingleTarget(TargetRatio),
				LosslessArms:        leg.arms,
				Seed:                11,
			})
			if err != nil {
				t.Fatal(err)
			}
			process := func(i int) compress.Encoded {
				t.Helper()
				res, enc, err := eng.Process(segs[i%len(segs)], i%2)
				if err != nil {
					t.Fatal(err)
				}
				if res.Lossy != (leg.target < 1) {
					t.Fatalf("segment %d: lossy %v, this leg is about the other phase", i, res.Lossy)
				}
				return enc
			}

			kept := process(0)
			want := append([]byte(nil), kept.Data...)
			for i := 1; i <= 20000; i++ {
				process(i)
			}
			if !bytes.Equal(kept.Data, want) {
				t.Fatal("a kept payload changed while 20 000 later segments were carved")
			}

			// Every pair shares a slab but the one that straddles a slab change.
			prev := process(0)
			for i := 1; i <= 256; i++ {
				next := process(i)
				clone := append([]byte(nil), next.Data...)
				junk := make([]byte, len(next.Data))
				for j := range junk {
					junk[j] = ^next.Data[j]
				}
				_ = append(prev.Data, junk...)
				if !bytes.Equal(next.Data, clone) {
					t.Fatalf("appending to payload %d overwrote payload %d", i-1, i)
				}
				prev = next
			}
		})
	}
}

// TestOnlinePayloadSlabRetention pins what the payload slab keeps live. With
// every payload dropped at once, 50 000 segments leave at most 32 KiB of
// heap behind; with a FIFO window of 1 024 payloads kept, as an uplink spool
// keeps them, at most the window's own bytes plus two slabs, the partly used
// ones at its ends.
func TestOnlinePayloadSlabRetention(t *testing.T) {
	const segments, window = 50000, 1024
	for _, leg := range []struct {
		name string
		keep int
	}{
		{"all dropped", 0},
		{"FIFO window", window},
	} {
		t.Run(leg.name, func(t *testing.T) {
			eng, err := NewOnlineEngine(Config{
				TargetRatioOverride: 0.20,
				Objective:           AggTarget(query.Max),
				BanditPolicy:        "contextual",
				LosslessArms:        []string{"gorilla", "chimp", "sprintz", "buff"},
				Seed:                1,
			})
			if err != nil {
				t.Fatal(err)
			}
			segs := shiftPool(512, 11)
			spool := make([]compress.Encoded, leg.keep)
			step := 0
			run := func() {
				_, enc, err := eng.Process(segs[step%len(segs)], 0)
				if err != nil {
					t.Fatal(err)
				}
				if leg.keep > 0 {
					spool[step%leg.keep] = enc
				}
				step++
			}
			for i := 0; i < 2*window; i++ {
				run() // bookkeeping to its high-water mark
			}
			clear(spool)
			before := liveHeap()
			for i := 0; i < segments; i++ {
				run()
			}
			after := liveHeap()
			var kept int64
			for _, enc := range spool {
				kept += int64(len(enc.Data))
			}
			// Two slabs, 32 KiB, when nothing is kept.
			budget := kept + 2*payloadSlabBytes
			grown := int64(after) - int64(before)
			if grown > budget {
				t.Errorf("%d segments left %d bytes of heap behind, budget %d (%d kept in the window)", segments, grown, budget, kept)
			} else {
				t.Logf("%d bytes of heap left behind, %d of them kept payload bytes", grown, kept)
			}
			runtime.KeepAlive(eng)
			runtime.KeepAlive(segs)
			runtime.KeepAlive(spool)
		})
	}
}

// mallocsPerOp is testing.AllocsPerRun without the truncation to whole
// allocations: the budgets below sit between integers.
func mallocsPerOp(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestAllocsOnlineLossyLoop pins the lossy regime as the edge_ml workload
// runs it (random-forest accuracy objective, ratio 0.10), with the caller
// keeping every encoding, as an uplink spool does. BUFF-lossy, 99 % of the
// picks, runs its MinRatio probe and its sizing encode in scratch from the
// codec package's free list and encodes and decodes into the engine's
// trial buffers, and the payload is a copy into the engine's slab: what is
// left is one slab per ~180 segments and exploration onto other arms.
func TestAllocsOnlineLossyLoop(t *testing.T) {
	run := lossyLoop(t)
	for i := 0; i < 512; i++ {
		run()
	}
	if got := mallocsPerOp(2048, func() { run() }); got > 0.1 {
		t.Errorf("online lossy loop allocates %.3f/segment steady-state, budget 0.1", got)
	} else {
		t.Logf("%.3f allocations per segment", got)
	}
}

// lossyLoop builds the edge_ml engine TestAllocsOnlineLossyLoop pins and
// returns a step that processes the next CBF segment.
func lossyLoop(t *testing.T) func() Result {
	t.Helper()
	X, y := datasets.CBF(240, datasets.CBFConfig{Seed: 1})
	forest, err := ml.FitForest(X, y, ml.ForestConfig{Trees: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.10,
		Objective:           MLTarget(forest),
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	segs := cbfSegments(t, 256, 11)
	step := 0
	return func() Result {
		s := segs[step%len(segs)]
		res, _, err := eng.Process(s.Values, s.Label)
		if err != nil {
			t.Fatal(err)
		}
		step++
		return res
	}
}

// TestAllocsOnlineLosslessLoop pins the lossless regime as edge_shift's
// plateau half runs it (max-query objective, ratio 0.20, contextual policy;
// the four bit-kernel arms, whose encoders allocate nothing of their own),
// with the caller keeping the last 1 024 encodings, as an uplink spool
// does. Every trial encodes into the engine's one trial buffer and the
// winner's bytes are copied into the engine's payload slab, so what is left
// is a slab every hundred-odd segments. No sync.Pool is on this path, so it
// runs under -race too.
func TestAllocsOnlineLosslessLoop(t *testing.T) {
	run := losslessLoop(t)
	for i := 0; i < 1024; i++ {
		run()
	}
	lossy := 0
	got := mallocsPerOp(2048, func() {
		if run().Lossy {
			lossy++
		}
	})
	if got > 0.1 {
		t.Errorf("online lossless loop allocates %.3f/segment steady-state, budget 0.1", got)
	} else {
		t.Logf("%.3f allocations per segment", got)
	}
	if lossy > 0 {
		t.Errorf("%d of 2048 plateau segments went lossy: this pin is about the lossless hand-off", lossy)
	}
}

// losslessLoop builds the edge_shift engine TestAllocsOnlineLosslessLoop
// pins and returns a step that processes the next plateau segment and keeps
// its encoding in a 1 024-slot spool.
func losslessLoop(t *testing.T) func() Result {
	t.Helper()
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.20,
		Objective:           AggTarget(query.Max),
		BanditPolicy:        "contextual",
		LosslessArms:        []string{"gorilla", "chimp", "sprintz", "buff"},
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plateaus := shiftPool(512, 11)[256:]
	spool := make([]compress.Encoded, 1024)
	step := 0
	return func() Result {
		res, enc, err := eng.Process(plateaus[step%len(plateaus)], 0)
		if err != nil {
			t.Fatal(err)
		}
		spool[step%len(spool)] = enc
		step++
		return res
	}
}

// TestAllocsOnlineAfterGC pins one Process as it meets a collection: two
// GCs, then one segment is decided. The engine keeps its trial buffers in
// fields of its own and the codecs keep their workspaces on free lists, so
// a collection takes none of them: each leg reads about 0.02 a segment (a
// payload slab now and then). While the codec workspaces sat in
// sync.Pools, which two collections empty, the lossy leg read about 4; while
// the trial buffers also rode in two process-wide sync.Pools, the legs
// read about 6.5 and 12.
func TestAllocsOnlineAfterGC(t *testing.T) {
	for _, leg := range []struct {
		name   string
		loop   func(*testing.T) func() Result
		warm   int
		budget float64
	}{
		{"lossless", losslessLoop, 1024, 0.5},
		{"lossy", lossyLoop, 512, 0.5},
	} {
		t.Run(leg.name, func(t *testing.T) {
			run := leg.loop(t)
			for i := 0; i < leg.warm; i++ {
				run()
			}
			const tries = 64
			var total float64
			for i := 0; i < tries; i++ {
				runtime.GC()
				runtime.GC() // what a sync.Pool held would be gone now
				total += mallocsPerOp(1, func() { run() })
			}
			if got := total / tries; got > leg.budget {
				t.Errorf("one Process after two collections allocates %.2f, budget %v", got, leg.budget)
			} else {
				t.Logf("%.2f allocations per Process after two collections", got)
			}
		})
	}
}

// TestAllocsOracleSample pins a decision the regret oracle samples. With
// SampleEvery 1 every Process reruns every candidate trial on the decision
// goroutine, into one encode buffer, one decode slice and one candidate
// slice the oracle owns, so after warm-up a sampled decision allocates no
// more than an unsampled one: 0.01 on the lossy leg and 0.03-0.06 on the
// lossless leg (a payload slab now and then). While the oracle borrowed the
// decision's trials through a per-decision map and ran the rest on
// goroutines of their own with nil buffers, the legs read 28.0 and 80.3. Both
// legs run under -race too: the lossless leg's gzip and zlib arms keep
// their DEFLATE writers through a dropped sync.Pool Put (flateEncs).
func TestAllocsOracleSample(t *testing.T) {
	for _, leg := range []struct {
		name  string
		ratio float64
	}{
		{"lossy", 0.1},
		{"lossless", 1},
	} {
		t.Run(leg.name, func(t *testing.T) {
			eng, err := NewOnlineEngine(Config{
				TargetRatioOverride: leg.ratio,
				Objective:           AggTarget(query.Max),
				Seed:                1,
				Quality:             &quality.Config{SampleEvery: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			segs := cbfSegments(t, 256, 11)
			step := 0
			run := func() {
				s := segs[step%len(segs)]
				step++
				res, _, err := eng.Process(s.Values, s.Label)
				if err != nil {
					t.Fatal(err)
				}
				if res.Lossy != (leg.ratio < 1) {
					t.Fatalf("segment %d decided lossy=%v on the %s leg", res.SegmentID, res.Lossy, leg.name)
				}
			}
			for i := 0; i < 512; i++ {
				run()
			}
			if got := mallocsPerOp(512, run); got > 0.5 {
				t.Errorf("a sampled Process allocates %.2f, budget 0.5", got)
			} else {
				t.Logf("%.2f allocations per sampled Process", got)
			}
		})
	}
}

// offlineRecodeEpoch is the offline_recode workload's epoch: that many
// segments at 140 bytes of budget each.
const offlineRecodeEpoch = 4096

// offlineRecodeEngine builds the engine the offline_recode workload runs: a
// frozen k-means objective and an epoch's byte budget, under policy (nil
// selects LRU).
func offlineRecodeEngine(t testing.TB, policy store.Policy) *OfflineEngine {
	t.Helper()
	eng, err := NewOfflineEngine(offlineRecodeConfig(t, policy))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// offlineRecodeConfig is offlineRecodeEngine's configuration, its model
// fitted.
func offlineRecodeConfig(t testing.TB, policy store.Policy) Config {
	t.Helper()
	X, _ := datasets.CBF(240, datasets.CBFConfig{Seed: 1})
	model, err := ml.FitKMeans(X, ml.KMeansConfig{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		StorageBytes: offlineRecodeEpoch * 140,
		Objective:    MLTarget(model),
		CodecCost:    DefaultCodecCost,
		Policy:       policy,
		Seed:         1,
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the first cycle only moves pooled scratch to the victim cache
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAllocsOfflineIngest pins the storage-constrained mode as the
// offline_recode workload runs it: a k-means objective and 140 bytes of
// budget per segment over one 4 096-segment epoch, start-up included. A
// payload is encoded into engine scratch and copied into the engine's
// arena, a recode overwrites its victim there, and a gzip or zlib victim
// decodes through the in-house inflate, which allocates nothing. What is
// left, 0.03-0.07 a segment over 60 runs, is mostly the DEFLATE writers
// rebuilt after each collection (the codecs' other workspaces outlive it
// on free lists) and the engine's rows, 256 segments a chunk
// (TestAllocsOfflineEpochAfterGC itemizes it). It read 0.08-0.11 while
// those workspaces sat in sync.Pools too. The budget, 0.22, is the top of
// the 0.12-0.20 this read in 60 runs, plus 10 %, while gzip and zlib-6
// pooled writers of their own, the bandit
// ledgers took five allocations each and Dict, LTTB and FFT scratch grew
// through doublings. While gzip and zlib victims
// decoded through compress/flate, whose Huffman link tables allocate per
// dynamic block (0.46 a segment), this read 0.62, under a budget of 0.8;
// while the engine also kept a map from ID to entry and one from ID to
// recency-list node, 0.63-0.72. With one exact-size allocation per payload
// and per recode (about 2.1 a segment) this read 3.7. The store.Entry and
// its sketch are rows of chunks the engine allocates 127 segments at a
// time; while each was a heap object of its own this read 5.8. It read
// 8.2 while BUFF-lossy allocated its probe encodes and a recode from a
// lossless codec ran six MinRatio probes of its own, and 19.2 before that:
// append-grown payloads, FFT's transform buffers, ranking and reflection
// sorts, a list element and a boxed id per Put.
func TestAllocsOfflineIngest(t *testing.T) {
	const epoch = offlineRecodeEpoch
	eng := offlineRecodeEngine(t, nil)
	segs := cbfSegments(t, 256, 11)
	step := 0
	got := mallocsPerOp(epoch, func() {
		s := segs[step%len(segs)]
		if err := eng.Ingest(s.Values, s.Label); err != nil {
			t.Fatal(err)
		}
		step++
	})
	if got > 0.22 {
		t.Errorf("offline ingest allocates %.2f/segment over a %d-segment epoch, budget 0.22", got, epoch)
	} else {
		t.Logf("%.2f allocations per segment", got)
	}
	if eng.Stats().Recodes < epoch {
		t.Errorf("only %d recodes over %d segments: the budget no longer forces the cascade this pin is about", eng.Stats().Recodes, epoch)
	}
}

// TestAllocsOfflineEpochAfterGC pins an offline_recode epoch as the
// workload meets it: after a warm-up epoch, two collections have just
// emptied every sync.Pool, then a fresh engine built without a Registry
// takes 4 096 CBF segments, construction included. What it allocates
// should be what it stores: its row and answer chunks, the arena's four
// steps up to its steady state and the recency list's three, and the
// bandit ledgers, an instance at a time; plus the DEFLATE writers, about
// 1 MB each, that the collections took and the epoch rebuilds, one per
// level. The codecs' other workspaces and the shared catalog outlive the
// collections, and the warm-up builds them whether or not an earlier test
// did, so the pin reads the same alone and after the other pins:
// 0.0510-0.0530 a segment over 40 runs; the budget is the top of that plus
// 7.5 %. It read 0.050-0.065 (0.066-0.080 alone, which built the catalog
// and the free lists) while each P kept a writer per level of its own, so
// the epoch built one per level per P its goroutine ran on; with the
// warm-up, 0.0632-0.0645 whenever the goroutine changed P, 0.0503 when it
// did not. It read 0.072-0.091 while Dict, LTTB and FFT scratch, the byte
// staging buffers and the inflaters sat in sync.Pools, which the
// collections emptied too, and the engine's arm tables and the registry's
// name lists grew by append; 0.093-0.125 while the engine built its own
// 17-codec registry, gzip and zlib-6 kept writers in pools of their own, a
// ledger took five allocations, Dict's index and the LTTB and FFT
// workspaces grew through doublings after every collection, and the arena
// and the recency list doubled from one payload and one slot.
func TestAllocsOfflineEpochAfterGC(t *testing.T) {
	const epoch = offlineRecodeEpoch
	cfg := offlineRecodeConfig(t, nil)
	segs := cbfSegments(t, epoch, 11)
	var stats OfflineStats
	// An epoch first, as the workload's warm-up: the shared catalog
	// and the codecs' free lists live for the process, so whether an
	// earlier test built them must not move the reading.
	warm, err := NewOfflineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if err := warm.Ingest(s.Values, s.Label); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC() // the first cycle only moves pooled writers to the victim cache
	// No collection mid-epoch: how many the epoch meets depends on the
	// heap the test binary happens to have, and each would empty the pool
	// again.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := mallocsPerOp(1, func() {
		eng, err := NewOfflineEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs {
			if err := eng.Ingest(s.Values, s.Label); err != nil {
				t.Fatal(err)
			}
		}
		stats = eng.Stats()
	}) / epoch
	if got > offlineEpochAllocBudget {
		t.Errorf("a fresh offline epoch after two collections allocates %.4f/segment, budget %.4f", got, offlineEpochAllocBudget)
	} else {
		t.Logf("%.4f allocations per segment", got)
	}
	if stats.Recodes < epoch {
		t.Errorf("only %d recodes over %d segments: the budget no longer forces the cascade this pin is about", stats.Recodes, epoch)
	}
}

// TestAllocsOfflineQuery: Query folds each segment into a running sum,
// count, min and max, in place where the codec has an in-situ operator and
// through one decode buffer reused across segments otherwise, so a store
// four times larger costs it no more allocations than a small constant
// more. Collecting every point and decoding each segment into a slice of
// its own cost 240 allocations on 50 segments and 868 on 200.
func TestAllocsOfflineQuery(t *testing.T) {
	allocs := func(segments int) float64 {
		e, err := NewOfflineEngine(Config{
			StorageBytes: int64(segments) * 300,
			Objective:    AggTarget(query.Sum),
			Seed:         1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ingestCBF(t, e, segments, 95)
		if e.Stats().Recodes == 0 {
			t.Fatalf("setup: %d segments were not recoded", segments)
		}
		var total float64
		for _, agg := range []query.Agg{query.Sum, query.Avg, query.Min, query.Max} {
			total += testing.AllocsPerRun(10, func() {
				if _, err := e.Query(agg); err != nil {
					t.Fatal(err)
				}
			})
		}
		return total
	}
	small, large := allocs(50), allocs(200)
	if large > small+4 {
		t.Errorf("four aggregates allocate %v times on 50 segments and %v on 200, want at most 4 more", small, large)
	} else {
		t.Logf("%v allocations on 50 segments, %v on 200", small, large)
	}
}

// offlineEpochAllocBudget is TestAllocsOfflineEpochAfterGC's budget.
const offlineEpochAllocBudget = 0.057

// TestOfflineRetainedBytesPerSegment pins what the offline engine keeps in
// RAM per stored segment, on the offline_recode workload's configuration:
// its share of the payload arena, its 64-byte pointer-free row, its 8-byte
// answer row (the k-means objective has one answer; the floors are
// interned in a table of three vectors) and its slot in the recoding
// policy: an 8-byte link in the recency list's slab under LRU. The arena
// ends the epoch at the bytes held at the recoding threshold plus an eighth
// of the budget, 129 of the 140 bytes a segment: this leg reads 228. It
// read 352 while each segment had a 128-byte store.Entry of a pointerful
// chunk and a 64-byte sketch row of eight floats, seven of them floors that
// mostly repeat; 432 while a map from ID to entry, a map from ID to
// recency-list node and a 16-byte node indexed each segment beside the
// engine's rows. With exact-size payloads (~112 bytes) it read 423; it
// read 441 while each segment's accuracy loss sat in a map beside the pool
// rather than in its entry, and 436 before that, when entry and sketch
// were heap objects of their own (the partly used last chunk pair is the
// difference). The mode exists for devices short of storage; while the
// engine also kept each segment's 1 024 raw bytes to score later recodes
// against, this read 1 394.
//
// The second leg pins that compaction reclaims holes: under the
// informativeness policy with a queried hot set, recency no longer follows
// ingest order, so recodes and their holes land all over the arena.
// Payloads bump-allocated from shared chunks and left for the GC to free
// read 500 to 750 bytes here, because one surviving payload pinned its whole
// chunk (EXPERIMENTS.md, "Why payloads are not pooled"); an arena that
// did not reclaim its holes would grow with every Ingest. This leg reads
// 236, its scores and insertion order 16 bytes a slot; it read 360 with
// 128-byte entries and 64-byte sketch rows, 449 with the two maps, and
// with exact-size payloads 438 (457 with the accuracy-loss map). Each
// budget is its leg's reading plus 5 %.
func TestOfflineRetainedBytesPerSegment(t *testing.T) {
	const epoch, hot = offlineRecodeEpoch, 200
	segs := cbfSegments(t, 256, 11)
	for _, leg := range []struct {
		name   string
		policy store.Policy // nil is LRU, and no queries
		budget float64
	}{
		{"lru", nil, 240},
		{"informativeness, hot set queried", store.NewInformativeness(), 248},
	} {
		t.Run(leg.name, func(t *testing.T) {
			before := liveHeap()
			eng := offlineRecodeEngine(t, leg.policy)
			for i := 0; i < epoch; i++ {
				s := segs[i%len(segs)]
				if err := eng.Ingest(s.Values, s.Label); err != nil {
					t.Fatal(err)
				}
				if leg.policy != nil && i >= hot {
					if _, err := eng.QuerySegment(uint64(i % hot)); err != nil {
						t.Fatal(err)
					}
				}
			}
			after := liveHeap()
			if eng.Segments() != epoch {
				t.Fatalf("%d segments stored of %d", eng.Segments(), epoch)
			}
			if got := (float64(after) - float64(before)) / epoch; got > leg.budget {
				t.Errorf("the engine retains %.0f bytes of heap per stored segment, budget %.0f", got, leg.budget)
			} else {
				t.Logf("%.0f bytes of heap per stored segment", got)
			}
			runtime.KeepAlive(eng)
		})
	}
	runtime.KeepAlive(segs)
}

// TestRetainedBytesOfflineRow: a stored segment's row is at most 64 bytes
// and holds no pointer, so rowChunk of them fit the 16 384-byte size class
// and the chunks are noscan memory the collector never marks. A string, a
// slice or any other pointer field (the payload's slice, the codec's name,
// the sketch's slice, as store.Entry has them) would make every chunk scan
// memory and, with the allocation header Go puts on a pointerful object
// above 512 bytes, cost a row of each chunk.
func TestRetainedBytesOfflineRow(t *testing.T) {
	if got := unsafe.Sizeof(row{}); got > 64 || got*rowChunk > 16384 {
		t.Errorf("row is %d bytes, %d a chunk: want at most 64, and a chunk within 16 384", got, got*rowChunk)
	}
	rt := reflect.TypeOf(row{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("row.%s is a %s: a row must hold no pointer", f.Name, f.Type)
		}
	}
}

// TestOfflineChunksReleasedByDrain: the engine points at the partly used
// chunk pair only, so once Drain has taken a chunk's last row the chunk is
// garbage, and the next chunk reuses its number and so its policy slots:
// one more fill-and-drain ends where the last did. (A drained engine is the
// baseline, not a new one, because the arena and the recency list's slot
// slab grow with the first epoch and are kept.) It reads 0-144 bytes. A
// directory of chunks, or anything else that outlives the stored segment,
// would hold 192 bytes a segment here, 0.8 MB; chunk numbers, and so
// slots, that were never reused, 60 KB an epoch.
func TestOfflineChunksReleasedByDrain(t *testing.T) {
	const epoch = offlineRecodeEpoch
	segs := cbfSegments(t, 256, 11)
	eng := offlineRecodeEngine(t, nil)
	fillAndDrain := func() uint64 {
		for i := 0; i < epoch; i++ {
			s := segs[i%len(segs)]
			if err := eng.Ingest(s.Values, s.Label); err != nil {
				t.Fatal(err)
			}
		}
		if rep := drain(t, eng, sim.Net5G, 3600); rep.SegmentsSent != epoch || rep.SegmentsLeft != 0 {
			t.Fatalf("drained %d segments of %d, %d left", rep.SegmentsSent, epoch, rep.SegmentsLeft)
		}
		return liveHeap()
	}
	fillAndDrain() // bookkeeping to its high-water mark
	before, after := fillAndDrain(), fillAndDrain()
	if grown := int64(after) - int64(before); grown > 16<<10 {
		t.Errorf("a drained epoch left %d bytes of heap behind, budget 16 KiB", grown)
	} else {
		t.Logf("a drained epoch left %d bytes of heap behind", grown)
	}
	runtime.KeepAlive(eng)
	runtime.KeepAlive(segs)
}

// TestAllocsOfflineSnapshot pins Snapshot, which a space/accuracy time
// series polls once a step, at 0: it sums the stored entries' losses
// walking the rows in ID order. Gathering them from the pool into a slice
// and sorting it by ID cost a 4 096-pointer slice and a sort a call here.
func TestAllocsOfflineSnapshot(t *testing.T) {
	const epoch = offlineRecodeEpoch
	eng := offlineRecodeEngine(t, nil)
	segs := cbfSegments(t, 256, 11)
	for i := 0; i < epoch; i++ {
		s := segs[i%len(segs)]
		if err := eng.Ingest(s.Values, s.Label); err != nil {
			t.Fatal(err)
		}
	}
	var snap Snapshot
	if got := mallocsPerOp(100, func() { snap = eng.Snapshot() }); got != 0 {
		t.Errorf("Snapshot allocates %.2f/call, want 0", got)
	}
	if snap.Segments != epoch || snap.MeanAccuracyLoss == 0 {
		t.Errorf("snapshot %+v: want %d segments and recodes that lost accuracy", snap, epoch)
	}
}
