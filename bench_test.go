// Package repro's root benchmark suite: one testing.B benchmark per figure
// of the paper's evaluation (see DESIGN.md §4 for the index), plus the
// ablation benches for the design decisions in DESIGN.md §5. Custom
// metrics (accuracy loss, achieved ratio, points/sec) are attached via
// b.ReportMetric so `go test -bench=. -benchmem` regenerates the numbers
// EXPERIMENTS.md records.
package repro

import (
	"io"
	"math"
	"testing"

	"repro/internal/bandit"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/store"
)

// --- Figure benches -------------------------------------------------------

func BenchmarkFig2CompressionThroughput(b *testing.B) {
	var qualified int
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig2CompressionThroughput(io.Discard, 60)
		qualified = 0
		for _, r := range rows {
			if r.Qualified {
				qualified++
			}
		}
	}
	b.ReportMetric(float64(qualified), "codecs-at-4Mpts/s")
}

func BenchmarkFig3EgressRate(b *testing.B) {
	var fits4g int
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3EgressRate(io.Discard, 60)
		fits4g = 0
		for _, r := range rows {
			if r.Fits4G {
				fits4g++
			}
		}
	}
	b.ReportMetric(float64(fits4g), "codecs-fit-4G")
}

func BenchmarkFig5DTreeUCI(b *testing.B) {
	var tight float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig5DTreeUCI(io.Discard, 120)
		pts := res["bufflossy"]
		tight = pts[len(pts)-1].Accuracy
	}
	b.ReportMetric(tight, "bufflossy-acc-at-floor")
}

func BenchmarkFig6RForestUCR(b *testing.B) {
	var tight float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig6RForestUCR(io.Discard, 80)
		pts := res["paa"]
		tight = pts[len(pts)-1].Accuracy
	}
	b.ReportMetric(tight, "paa-acc-at-0.03")
}

// benchOnlineSweep reports the MAB's mean accuracy loss at the tightest
// feasible ratio of a sweep.
func benchOnlineSweep(b *testing.B, run func() experiments.SweepResult) {
	b.Helper()
	var mabTight float64
	for i := 0; i < b.N; i++ {
		res := run()
		for ri := len(res.Ratios) - 1; ri >= 0; ri-- {
			if v := res.Series["mab"][ri]; !math.IsNaN(v) {
				mabTight = v
				break
			}
		}
	}
	b.ReportMetric(mabTight, "mab-at-tightest-ratio")
}

func BenchmarkFig7OnlineMLDTree(b *testing.B) {
	benchOnlineSweep(b, func() experiments.SweepResult {
		return experiments.Fig7OnlineML(io.Discard, "dtree", 40)
	})
}

func BenchmarkFig7OnlineMLKMeans(b *testing.B) {
	benchOnlineSweep(b, func() experiments.SweepResult {
		return experiments.Fig7OnlineML(io.Discard, "kmeans", 40)
	})
}

func BenchmarkFig8SumQuery(b *testing.B) {
	benchOnlineSweep(b, func() experiments.SweepResult {
		return experiments.Fig8SumQuery(io.Discard, 40)
	})
}

func BenchmarkFig9MaxQuery(b *testing.B) {
	benchOnlineSweep(b, func() experiments.SweepResult {
		return experiments.Fig9MaxQuery(io.Discard, 40)
	})
}

func BenchmarkFig10ComplexAggML(b *testing.B) {
	benchOnlineSweep(b, func() experiments.SweepResult {
		return experiments.Fig10ComplexAggML(io.Discard, 40)
	})
}

func BenchmarkFig11ComplexSpeedML(b *testing.B) {
	benchOnlineSweep(b, func() experiments.SweepResult {
		return experiments.Fig11ComplexSpeedML(io.Discard, 40)
	})
}

func benchOffline(b *testing.B, run func() []experiments.OfflineRun) {
	b.Helper()
	var mabLoss float64
	var failed int
	for i := 0; i < b.N; i++ {
		runs := run()
		failed = 0
		for _, r := range runs {
			if r.Method == "mab_mab" {
				mabLoss = r.FinalLoss
			}
			if r.Failed {
				failed++
			}
		}
	}
	b.ReportMetric(mabLoss, "mab-final-loss")
	b.ReportMetric(float64(failed), "failed-baselines")
}

func BenchmarkFig12Offline(b *testing.B) {
	benchOffline(b, func() []experiments.OfflineRun {
		return experiments.Fig12Offline(io.Discard, experiments.OfflineConfig{
			StorageBytes: 36 << 10, Segments: 150, SnapshotEvery: 50, Seed: 12,
		})
	})
}

func BenchmarkFig13Offline(b *testing.B) {
	benchOffline(b, func() []experiments.OfflineRun {
		return experiments.Fig13Offline(io.Discard, experiments.OfflineConfig{
			StorageBytes: 36 << 10, Segments: 150, SnapshotEvery: 50, Seed: 13,
		})
	})
}

func BenchmarkFig14HighFrequency(b *testing.B) {
	benchOffline(b, func() []experiments.OfflineRun {
		return experiments.Fig14HighFrequency(io.Discard, experiments.OfflineConfig{
			StorageBytes: 36 << 10, Segments: 150, SnapshotEvery: 50, Seed: 14,
		})
	})
}

func BenchmarkFig15DataShift(b *testing.B) {
	var mabKB float64
	for i := 0; i < b.N; i++ {
		runs := experiments.Fig15bMAB(io.Discard, 120, 15, []float64{0.1})
		mabKB = float64(runs[0].TotalBytes) / 1024
	}
	b.ReportMetric(mabKB, "mab-total-KB")
}

func BenchmarkScalabilityThreads(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Scalability(io.Discard, []int{1, 8}, 50)
		speedup = rows[1].PtsPerSec / rows[0].PtsPerSec
	}
	b.ReportMetric(speedup, "8-worker-speedup")
}

// --- Ablation benches (DESIGN.md §5) ---------------------------------------

func offlineLossFor(b *testing.B, cfg core.Config, segments int) float64 {
	b.Helper()
	eng, err := core.NewOfflineEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 55})
	for i := 0; i < segments; i++ {
		series, label := stream.Next()
		if err := eng.Ingest(series, label); err != nil {
			b.Fatal(err)
		}
	}
	return eng.Snapshot().MeanAccuracyLoss
}

func kmeansObjective(b *testing.B) core.Objective {
	b.Helper()
	X, _ := datasets.CBF(150, datasets.CBFConfig{Seed: 31})
	m, err := ml.FitKMeans(X, ml.KMeansConfig{K: 3, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	return core.MLTarget(m)
}

// Ablation 1: per-ratio-range MAB pool vs a single lossy MAB.
func BenchmarkAblationSingleVsRangedMAB(b *testing.B) {
	obj := kmeansObjective(b)
	var ranged, single float64
	for i := 0; i < b.N; i++ {
		ranged = offlineLossFor(b, core.Config{
			StorageBytes: 28 << 10, Objective: obj, Seed: 5,
		}, 150)
		single = offlineLossFor(b, core.Config{
			StorageBytes: 28 << 10, Objective: obj, Seed: 5, SingleLossyMAB: true,
		}, 150)
	}
	b.ReportMetric(ranged, "ranged-loss")
	b.ReportMetric(single, "single-loss")
}

// Ablation 2: optimistic initialization vs plain ε-greedy online.
func BenchmarkAblationOptimism(b *testing.B) {
	obj := core.AggTarget(query.Sum)
	run := func(optimism float64) float64 {
		eng, err := core.NewOnlineEngine(core.Config{
			TargetRatioOverride: 0.1,
			Objective:           obj,
			Bandit:              bandit.Config{Epsilon: 0.01, Optimism: optimism, Seed: 6},
			Seed:                6,
		})
		if err != nil {
			b.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 66})
		for i := 0; i < 100; i++ {
			series, label := stream.Next()
			if _, _, err := eng.Process(series, label); err != nil {
				b.Fatal(err)
			}
		}
		return eng.Stats().MeanAccuracyLoss()
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(1)
		without = run(1e-9) // effectively zero optimism (0 would select the default)
	}
	b.ReportMetric(with, "optimistic-loss")
	b.ReportMetric(without, "plain-loss")
}

// Ablation 3: nonstationary constant step vs sample-average on data shift.
func BenchmarkAblationStepSize(b *testing.B) {
	var stepKB, avgKB float64
	for i := 0; i < b.N; i++ {
		run := func(step float64) float64 {
			reg := compress.DefaultRegistry(4)
			names := reg.Lossless()
			pol := bandit.NewEpsilonGreedy(len(names), bandit.Config{Epsilon: 0.1, Optimism: 1, Step: step, Seed: 7})
			stream := datasets.NewShiftStream(200, 128, 8)
			var total int64
			for !stream.Done() {
				series, _ := stream.Next()
				arm := pol.Select(nil)
				codec, _ := reg.Lookup(names[arm])
				enc, err := compress.Compress(codec, series)
				if err != nil {
					b.Fatal(err)
				}
				r := enc.Ratio()
				if r > 1 {
					r = 1
				}
				pol.Update(arm, 1-r)
				total += int64(enc.Size())
			}
			return float64(total) / 1024
		}
		stepKB = run(0.5)
		avgKB = run(0)
	}
	b.ReportMetric(stepKB, "step0.5-KB")
	b.ReportMetric(avgKB, "sample-avg-KB")
}

// Ablation 4: virtual-decompression recode vs decode + re-encode.
func BenchmarkAblationRecoding(b *testing.B) {
	X, _ := datasets.CBF(1, datasets.CBFConfig{Seed: 9})
	paa := compress.NewPAA()
	enc, err := paa.CompressRatio(X[0], 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("virtual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := paa.Recode(enc, 0.1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-reencode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dec, err := compress.Decompress(paa, enc)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := paa.CompressRatio(dec, 0.1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 5: LRU vs round-robin compression order under a query-heavy
// workload that repeatedly touches recent segments.
func BenchmarkAblationLRUPolicy(b *testing.B) {
	obj := kmeansObjective(b)
	run := func(policy store.Policy) float64 {
		eng, err := core.NewOfflineEngine(core.Config{
			StorageBytes: 28 << 10, Objective: obj, Policy: policy, Seed: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 99})
		var hotLoss float64
		for i := 0; i < 150; i++ {
			series, label := stream.Next()
			if err := eng.Ingest(series, label); err != nil {
				b.Fatal(err)
			}
			// The workload keeps querying the first three segments.
			for id := uint64(0); id < 3 && id < uint64(i); id++ {
				if _, err := eng.QuerySegment(id); err != nil {
					b.Fatal(err)
				}
			}
		}
		// Hot-segment fidelity: recode level of the queried segments.
		eng.EachEntry(func(e *store.Entry) {
			if e.ID < 3 {
				hotLoss += float64(e.Level)
			}
		})
		return hotLoss
	}
	var lru, rr float64
	for i := 0; i < b.N; i++ {
		lru = run(store.NewLRU())
		rr = run(store.NewRoundRobin())
	}
	b.ReportMetric(lru, "lru-hot-recodes")
	b.ReportMetric(rr, "roundrobin-hot-recodes")
}
