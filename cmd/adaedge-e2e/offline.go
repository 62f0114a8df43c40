package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/store"
)

// epochSegments is how many segments one offline epoch ingests into a
// fresh engine: one pass over its pool. Short epochs on purpose. At
// 16 000 the retained evaluation copies make a 30 MB heap that lives in
// the cache the sandbox shares with its neighbours, and CPU per segment
// drifted 52–69 µs from run to run; at 4 096 (9 MB) it held 62–70 µs,
// and a run averages over four times as many engines. The budget scales
// with the epoch, so the share of an epoch spent filling the store (a
// fifth) and the share spent recoding are the same at either size. A
// variable so the smoke test can run a shorter one still.
var epochSegments = poolSegments

const (
	// storageBytesPerSegment is the budget an epoch gets per segment: 140
	// of the 1024 raw bytes, so the engine has to recode most of what it
	// holds.
	storageBytesPerSegment = 140
	epochSeedStride        = 1 << 20 // keeps the pools of runs on neighbouring seeds apart
)

// offline drives the storage-constrained mode: OfflineEngine.Ingest into
// store.Pool under a byte budget, recoding as it fills. There is no
// transport. Each epoch uses a fresh engine so KeepEvalRaw memory stays
// bounded; an epoch is also the slice throughput and the latency
// quantiles are taken over.
type offline struct {
	seed  int64
	trace bool
	spans *spanLog

	reg    *compress.Registry
	pool   [][]float64
	labels []int
	model  *ml.KMeans
	// lat is every stamped Ingest's duration, in order. Allocated before
	// the live-heap baseline, so it is not counted as the engine's.
	lat      []int64
	baseHeap uint64

	epochs    int
	attempted int64
	failed    int64
	firstBad  string
}

// epochResult is what one epoch measured.
type epochResult struct {
	n            int
	wallNs       int64
	cpuNs        int64
	heap0, heap1 heapSnapshot
	starts       []int64 // per-Ingest start times, kept only for the span file
	used         int64
	snapshot     core.Snapshot
	stats        core.OfflineStats
	lossless     int
	liveHeap     uint64
}

func (f *offline) prepare() {
	f.lat = make([]int64, 0, maxSamples)
	f.baseHeap = liveHeap()
}

// setup fits the frozen model and generates the first epoch's inputs.
func (f *offline) setup() (err error) {
	f.reg = compress.DefaultRegistry(4)
	X, _ := trainingSet()
	if f.model, err = ml.FitKMeans(X, ml.KMeansConfig{K: 3, Seed: configSeed}); err != nil {
		return err
	}
	f.nextPool()
	return nil
}

// warm runs one untimed epoch, so pools and lazily built tables exist
// before anything is timed. It is verified like any other.
func (f *offline) warm() error {
	_, err := f.epoch(warmupSegments, false, false)
	return err
}

// nextPool generates the inputs of the epoch about to run. Which lossy
// arms the recoder settles on depends on the data as well as on the
// engine's seed (the k-means reward leaves them nearly tied), so a run
// over one pool reports that pool's leaning; over twenty it reports the
// engine's average.
func (f *offline) nextPool() {
	f.pool, f.labels = cbfPool(f.seed*epochSeedStride + int64(f.epochs))
}

func (f *offline) close() {}

// fail counts n failed segments and keeps the first description.
func (f *offline) fail(n int, format string, args ...any) {
	f.failed += int64(n)
	if f.firstBad == "" {
		f.firstBad = fmt.Sprintf(format, args...)
	}
}

// epoch ingests n segments into a fresh engine and verifies what it
// stored. stamped times every Ingest call; an unstamped epoch is the
// reference the traced run measures its own overhead against.
func (f *offline) epoch(n int, stamped, wantLive bool) (*epochResult, error) {
	if f.epochs > 0 {
		f.nextPool() // set-up generated the first
	}
	budget := int64(n) * storageBytesPerSegment
	res := &epochResult{n: n}
	res.heap0 = readHeap()
	cpu0, t0 := cpuNow(), now()
	eng, err := core.NewOfflineEngine(core.Config{
		StorageBytes: budget,
		Objective:    core.MLTarget(f.model),
		CodecCost:    core.DefaultCodecCost,
		Workers:      1,
		Seed:         configSeed + int64(f.epochs),
	})
	if err != nil {
		return nil, err
	}
	f.epochs++
	for i := 0; i < n; i++ {
		idx := i % poolSegments
		var a int64
		if stamped {
			a = now()
		}
		if err := eng.Ingest(f.pool[idx], f.labels[idx]); err != nil {
			f.fail(1, "epoch %d: Ingest segment %d: %v", f.epochs, i, err)
		}
		if stamped && len(f.lat) < cap(f.lat) {
			f.lat = append(f.lat, now()-a)
			if f.spans != nil {
				res.starts = append(res.starts, a)
			}
		}
	}
	res.wallNs, res.cpuNs = now()-t0, cpuNow()-cpu0
	res.heap1 = readHeap()
	f.attempted += int64(n)

	res.used = eng.Storage().Used()
	res.snapshot = eng.Snapshot()
	res.stats = eng.Stats()
	if res.used > budget {
		f.fail(1, "epoch %d: %d bytes stored, budget %d", f.epochs, res.used, budget)
	}
	if got := eng.Segments(); got != n {
		f.fail(n-got, "epoch %d: %d segments stored of %d ingested", f.epochs, got, n)
	}
	type sampled struct {
		id       uint64
		lossless bool
	}
	var check []sampled
	eng.EachEntry(func(e *store.Entry) {
		if e.Lossless {
			res.lossless++
		}
		if e.ID%verifyStride == 0 {
			check = append(check, sampled{e.ID, e.Lossless})
		}
	})
	for _, s := range check {
		got, err := eng.QuerySegment(s.id)
		src := f.pool[s.id%poolSegments]
		switch {
		case err != nil:
			f.fail(1, "epoch %d: QuerySegment %d: %v", f.epochs, s.id, err)
		case len(got) != len(src):
			f.fail(1, "epoch %d: segment %d decodes to %d values", f.epochs, s.id, len(got))
		case s.lossless:
			for i, v := range got {
				if v != src[i] {
					f.fail(1, "epoch %d: lossless segment %d differs at %d", f.epochs, s.id, i)
					break
				}
			}
		}
	}
	if wantLive {
		res.liveHeap = liveHeap()
		runtime.KeepAlive(eng)
	}
	return res, nil
}

func (f *offline) run(seconds float64) (*report, error) {
	rep := newReport(f.trace)
	deadline := now() + int64(seconds*float64(time.Second))
	var timed, reference []*epochResult
	for now() < deadline || len(timed) == 0 {
		// The traced run alternates: an unstamped reference epoch, then a
		// stamped one.
		if f.trace {
			ref, err := f.epoch(epochSegments, false, false)
			if err != nil {
				return nil, err
			}
			reference = append(reference, ref)
		}
		e, err := f.epoch(epochSegments, true, !f.trace)
		if err != nil {
			return nil, err
		}
		timed = append(timed, e)
	}
	rep.attempted, rep.failed = f.attempted, f.failed
	if f.firstBad != "" {
		rep.notes = append(rep.notes, "FAILED: "+f.firstBad)
	}
	if rep.attempted == 0 {
		return nil, errors.New("no epoch ran")
	}

	var thr, cpu, ratio, loss, util, allocs []float64
	lat := f.lat
	var segs, allocBytes, pauseNs, recodes, used, lossless float64
	var gcs uint32
	distinct := map[string]bool{}
	for _, e := range timed {
		n := float64(e.n)
		thr = append(thr, n/(float64(e.wallNs)/1e9))
		cpu = append(cpu, float64(e.cpuNs)/1e3/n)
		ratio = append(ratio, float64(e.used)/(n*segmentLen*8))
		loss = append(loss, e.snapshot.MeanAccuracyLoss)
		util = append(util, e.snapshot.SpaceUtilization)
		segs += n
		allocs = append(allocs, float64(e.heap1.mallocs-e.heap0.mallocs)/n)
		allocBytes += float64(e.heap1.totalAlloc - e.heap0.totalAlloc)
		pauseNs += float64(e.heap1.pauseNs - e.heap0.pauseNs)
		gcs += e.heap1.numGC - e.heap0.numGC
		recodes += float64(e.stats.Recodes)
		used += float64(e.used)
		lossless += float64(e.lossless)
		for name := range e.stats.LosslessUse {
			distinct[name] = true
		}
		for name := range e.stats.LossyUse {
			distinct[name] = true
		}
	}
	last := timed[len(timed)-1]
	rep.e2e["out_bytes_per_raw_byte"] = mean(ratio)
	rep.e2e["task_accuracy"] = 1 - mean(loss)
	rep.e2e["allocs_per_segment"] = mean(allocs)
	rep.e2e["live_heap_mb"] = (float64(last.liveHeap) - float64(f.baseHeap)) / 1e6
	rep.notes = append(rep.notes, fmt.Sprintf("%d epochs of %d segments, %d latency samples", len(timed), epochSegments, len(lat)))
	rep.path(median(thr), median(cpu), chunkP50(lat, epochSegments), chunkP99(lat))
	if !f.trace {
		return rep, nil
	}

	m := rep.layer
	m["core.recodes_per_segment"] = recodes / segs
	m["core.space_utilization"] = mean(util)
	m["core.lossless_share"] = lossless / segs
	m["core.distinct_codecs"] = float64(len(distinct))
	med := chunkP50(lat, 0) * 1e3
	stalls := 0
	for _, d := range lat {
		if float64(d) > 4*med {
			stalls++
		}
	}
	m["core.ingest_stall_share"] = float64(stalls) / float64(len(lat))
	m["store.pool_bytes_per_segment"] = used / segs
	m["store.pool_entries"] = float64(last.snapshot.Segments)
	m["runtime.gc_cycles"] = float64(gcs)
	m["runtime.gc_pause_total_ms"] = pauseNs / 1e6
	m["runtime.alloc_bytes_per_segment"] = allocBytes / segs
	var refThr []float64
	for _, e := range reference {
		refThr = append(refThr, float64(e.n)/(float64(e.wallNs)/1e9))
	}
	m["bench.trace_overhead_share"] = 1 - median(thr)/median(refThr)

	lastLat := lat[len(lat)-len(last.starts):]
	for i := max(len(last.starts)-spanFileSegments, 0); i < len(last.starts); i++ {
		f.spans.add("core.ingest", 0, uint64(i), last.starts[i], last.starts[i]+lastLat[i])
	}
	runKernels(m, kernelInput{
		reg: f.reg, sample: f.pool, spans: f.spans,
		mix: normalize(last.stats.LosslessUse), encode: true,
		recodeMix: normalize(last.stats.LossyUse), target: storageBytesPerSegment / float64(segmentLen*8),
		model: f.model, pool: true,
	})
	return rep, nil
}

func mean(v []float64) (m float64) {
	for _, x := range v {
		m += x
	}
	return m / float64(len(v))
}
