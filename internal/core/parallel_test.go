package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/datasets"
	"repro/internal/query"
)

// segOutcome is the determinism-relevant slice of a segment's outcome:
// everything in the Result except Duration, which is wall time and
// legitimately varies run to run, plus the encoded bytes.
type segOutcome struct {
	SegmentID    uint64
	Codec        string
	Lossy        bool
	Ratio        float64
	Reward       float64
	AccuracyLoss float64
	Encoding     string
}

func outcomeOf(r Result, enc compress.Encoded) segOutcome {
	return segOutcome{
		SegmentID: r.SegmentID, Codec: r.Codec, Lossy: r.Lossy,
		Ratio: r.Ratio, Reward: r.Reward, AccuracyLoss: r.AccuracyLoss,
		Encoding: string(enc.Data),
	}
}

func cbfSegments(t testing.TB, n int, seed int64) []LabeledSegment {
	t.Helper()
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: seed})
	segs := make([]LabeledSegment, 0, n)
	for i := 0; i < n; i++ {
		v, label := stream.Next()
		segs = append(segs, LabeledSegment{Values: v, Label: label})
	}
	return segs
}

// runSequential is the pre-PR path: one Process call per segment on one
// goroutine.
func runSequential(t *testing.T, cfg Config, segs []LabeledSegment) ([]segOutcome, OnlineStats) {
	t.Helper()
	eng, err := NewOnlineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []segOutcome
	for _, s := range segs {
		res, enc, err := eng.Process(s.Values, s.Label)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, outcomeOf(res, enc))
	}
	return out, eng.Stats()
}

func runParallel(t *testing.T, cfg Config, workers int, segs []LabeledSegment) ([]segOutcome, OnlineStats) {
	t.Helper()
	cfg.Workers = workers
	eng, err := NewOnlineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par := NewOnlineParallel(eng, 0)
	var out []segOutcome
	par.OnResult(func(res Result, enc compress.Encoded, err error) {
		if err != nil {
			t.Errorf("parallel segment failed: %v", err)
			return
		}
		out = append(out, outcomeOf(res, enc))
	})
	par.Start(context.Background())
	for _, s := range segs {
		par.Submit(s.Values, s.Label)
	}
	if err := par.Close(); err != nil {
		t.Fatal(err)
	}
	return out, eng.Stats()
}

// TestParallelOnlineMatchesSequential is the determinism guarantee: for a
// fixed seed, Workers: k produces the byte-identical selected-codec
// sequence, rewards, encodings and stats as Workers: 1, because codec
// trials are pure and every bandit decision happens on the sequencer in
// arrival order.
func TestParallelOnlineMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"lossy-maxquery", Config{TargetRatioOverride: 0.15, Objective: AggTarget(query.Max), Seed: 42}},
		{"lossy-ratio", Config{TargetRatioOverride: 0.3, Objective: SingleTarget(TargetRatio), Seed: 7}},
		{"lossless-unconstrained", Config{TargetRatioOverride: 1, Objective: SingleTarget(TargetRatio), Seed: 11}},
		{"ucb", Config{TargetRatioOverride: 0.2, Objective: AggTarget(query.Sum), Seed: 5, UseUCB: true}},
		// Lossless turns non-viable on the second segment; at interval 10
		// the remaining 98 cross nine one-arm re-probes, which workers
		// never speculate and the sequencer must run inline, identically.
		{"lossy-reprobe", Config{TargetRatioOverride: 0.15, Objective: AggTarget(query.Max), Seed: 9, LosslessProbeInterval: 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			segs := cbfSegments(t, 100, 90)
			wantRes, wantStats := runSequential(t, tc.cfg, segs)
			for _, workers := range []int{2, 4, 8} {
				gotRes, gotStats := runParallel(t, tc.cfg, workers, segs)
				if !reflect.DeepEqual(wantRes, gotRes) {
					t.Fatalf("workers=%d: result sequence diverged from sequential", workers)
				}
				if !reflect.DeepEqual(wantStats, gotStats) {
					t.Fatalf("workers=%d: stats diverged:\nseq: %+v\npar: %+v", workers, wantStats, gotStats)
				}
			}
		})
	}
}

// TestRunOnlineSegmentsHonorsWorkers checks the Config.Workers wiring:
// Workers: 1 (the default) takes the sequential path, Workers: k the
// pipeline, and both agree.
func TestRunOnlineSegmentsHonorsWorkers(t *testing.T) {
	segs := cbfSegments(t, 60, 91)
	run := func(workers int) []segOutcome {
		cfg := Config{TargetRatioOverride: 0.2, Objective: SingleTarget(TargetRatio), Seed: 3, Workers: workers}
		eng, err := NewOnlineEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", eng.Workers(), workers)
		}
		results, err := RunOnlineSegments(context.Background(), eng, segs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]segOutcome, len(results))
		for i, r := range results {
			out[i] = outcomeOf(r, compress.Encoded{})
		}
		return out
	}
	if a, b := run(1), run(4); !reflect.DeepEqual(a, b) {
		t.Fatal("Workers: 4 diverged from Workers: 1")
	}
}

// TestOfflineParallelRecodeMatchesSequential proves the offline engine's
// speculative recode trials change nothing observable: selections, recode
// counts, snapshots all match Workers: 1.
func TestOfflineParallelRecodeMatchesSequential(t *testing.T) {
	run := func(workers int) (OfflineStats, Snapshot) {
		eng, err := NewOfflineEngine(Config{
			StorageBytes: 30 << 10,
			Objective:    AggTarget(query.Sum),
			Seed:         7,
			Workers:      workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 92})
		for i := 0; i < 120; i++ {
			v, label := stream.Next()
			if err := eng.Ingest(v, label); err != nil {
				t.Fatal(err)
			}
		}
		return eng.Stats(), eng.Snapshot()
	}
	wantStats, wantSnap := run(1)
	for _, workers := range []int{2, 4} {
		gotStats, gotSnap := run(workers)
		if !reflect.DeepEqual(wantStats, gotStats) {
			t.Fatalf("workers=%d: offline stats diverged:\nseq: %+v\npar: %+v", workers, wantStats, gotStats)
		}
		if wantSnap != gotSnap {
			t.Fatalf("workers=%d: snapshots diverged: %+v vs %+v", workers, wantSnap, gotSnap)
		}
	}
}

// TestParallelOnlineStress hammers one pipeline from 8 submitter
// goroutines under the race detector: no segment may be lost or
// duplicated, and the count-style stats must add up exactly.
func TestParallelOnlineStress(t *testing.T) {
	const submitters, perSubmitter = 8, 25
	total := submitters * perSubmitter
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2,
		Objective:           SingleTarget(TargetRatio),
		Seed:                13,
		Workers:             4,
	})
	if err != nil {
		t.Fatal(err)
	}
	par := NewOnlineParallel(eng, 0)
	seen := make(map[uint64]int)
	delivered := 0
	par.OnResult(func(res Result, _ compress.Encoded, err error) {
		// Sequencer goroutine: no locking needed here by contract.
		if err != nil {
			t.Errorf("segment failed: %v", err)
			return
		}
		delivered++
		seen[res.SegmentID]++
	})
	par.Start(context.Background())

	segs := cbfSegments(t, total, 94)
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				seg := segs[base+i]
				par.Submit(seg.Values, seg.Label)
			}
		}(s * perSubmitter)
	}
	wg.Wait()
	if err := par.Close(); err != nil {
		t.Fatal(err)
	}

	if delivered != total {
		t.Fatalf("delivered %d results, want %d", delivered, total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("segment %d delivered %d times", id, n)
		}
	}
	st := eng.Stats()
	if st.Segments != total {
		t.Fatalf("stats.Segments = %d, want %d", st.Segments, total)
	}
	if st.LosslessSegments+st.LossySegments != total {
		t.Fatalf("lossless %d + lossy %d != %d", st.LosslessSegments, st.LossySegments, total)
	}
	if want := int64(total * 8 * 128); st.TotalRawBytes != want {
		t.Fatalf("TotalRawBytes = %d, want %d", st.TotalRawBytes, want)
	}
	var use int
	for _, n := range st.CodecUse {
		use += n
	}
	if use != total {
		t.Fatalf("codec-use sum = %d, want %d", use, total)
	}
}

// TestParallelStressTotalsMatchSequential runs the same multiset of
// segments through a sequential engine and a concurrently-fed pipeline.
// Arrival order differs, so per-codec choices may differ — but the
// conservation totals must agree exactly.
func TestParallelStressTotalsMatchSequential(t *testing.T) {
	segs := cbfSegments(t, 120, 95)
	cfg := Config{TargetRatioOverride: 0.25, Objective: SingleTarget(TargetRatio), Seed: 17}
	_, seqStats := runSequential(t, cfg, segs)

	cfg.Workers = 4
	eng, err := NewOnlineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par := NewOnlineParallel(eng, 0)
	par.Start(context.Background())
	var wg sync.WaitGroup
	for s := 0; s < 6; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s * 20; i < (s+1)*20; i++ {
				par.Submit(segs[i].Values, segs[i].Label)
			}
		}(s)
	}
	wg.Wait()
	if err := par.Close(); err != nil {
		t.Fatal(err)
	}
	parStats := eng.Stats()
	if parStats.Segments != seqStats.Segments {
		t.Fatalf("segment counts diverged: %d vs %d", parStats.Segments, seqStats.Segments)
	}
	if parStats.TotalRawBytes != seqStats.TotalRawBytes {
		t.Fatalf("raw-byte totals diverged: %d vs %d", parStats.TotalRawBytes, seqStats.TotalRawBytes)
	}
}

// TestParallelCtxCancelAbandonsCleanly cancels mid-stream: the pipeline
// must still drain without deadlock, reporting a ctx error for abandoned
// segments and real results for completed ones.
func TestParallelCtxCancelAbandonsCleanly(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2, Objective: SingleTarget(TargetRatio), Seed: 23, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	par := NewOnlineParallel(eng, 0)
	done, failed := 0, 0
	par.OnResult(func(_ Result, _ compress.Encoded, err error) {
		if err != nil {
			failed++
		} else {
			done++
		}
	})
	par.Start(ctx)
	segs := cbfSegments(t, 40, 96)
	for i, s := range segs {
		if i == 10 {
			cancel()
		}
		par.Submit(s.Values, s.Label)
	}
	err = par.Close() // must not deadlock
	if done+failed != len(segs) {
		t.Fatalf("accounted %d segments, want %d", done+failed, len(segs))
	}
	if failed > 0 {
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("expected context.Canceled from Close, got %v", err)
		}
	}
}

// TestPreparedSegmentStaleTargetRecovers retargets between preparation and
// processing: cached lossy trials were computed for the old ratio and must
// be discarded, with processing still succeeding at the new target.
func TestPreparedSegmentStaleTargetRecovers(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.5, Objective: SingleTarget(TargetRatio), Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	segs := cbfSegments(t, 1, 97)
	prep := eng.PrepareSegment(segs[0].Values, segs[0].Label)
	eng.RetargetRatio(0.1)
	res, enc, err := eng.ProcessPrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio > 0.1+1e-6 {
		t.Fatalf("achieved ratio %.4f exceeds retargeted 0.1", res.Ratio)
	}
	if enc.Size() == 0 {
		t.Fatal("empty encoding")
	}
	if math.IsNaN(res.Reward) {
		t.Fatal("NaN reward")
	}
}

// TestParallelWorkerCounts sanity-checks worker resolution from Config.
func TestParallelWorkerCounts(t *testing.T) {
	for _, tc := range []struct{ cfgWorkers, argWorkers, want int }{
		{0, 0, 1},  // both default
		{4, 0, 4},  // from config
		{4, 2, 2},  // explicit overrides config
		{0, 3, 3},  // explicit with default config
		{-5, 0, 1}, // negative clamps
	} {
		cfg := Config{TargetRatioOverride: 0.5, Objective: SingleTarget(TargetRatio), Workers: tc.cfgWorkers}
		eng, err := NewOnlineEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		par := NewOnlineParallel(eng, tc.argWorkers)
		if par.Workers() != tc.want {
			t.Errorf("cfg=%d arg=%d: workers=%d, want %d",
				tc.cfgWorkers, tc.argWorkers, par.Workers(), tc.want)
		}
		_ = fmt.Sprintf("%v", par) // keep fmt imported for failure paths
	}
}
