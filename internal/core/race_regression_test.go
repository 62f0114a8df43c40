package core

import (
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/sim"
)

// Regression tests for data races between the decision goroutine and
// monitors. The seed's Stats() returned struct copies whose maps
// (CodecUse, LosslessUse, LossyUse) were the engine's live maps, so any
// monitor polling stats while segments flowed raced with the accounting
// writes. Same story for the offline accuracy losses read by Snapshot(),
// now each entry's AccLoss. Stats now deep-copies under a mutex and
// Snapshot reads the losses under it; these tests fail under -race
// against the old code.

// TestOnlineStatsPollRace polls Stats and both estimate maps from monitor
// goroutines while the engine processes segments.
func TestOnlineStatsPollRace(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2,
		Objective:           SingleTarget(TargetRatio),
		Seed:                31,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := eng.Stats()
				for name := range st.CodecUse {
					_ = name
				}
				_ = eng.LossyEstimates()
				_ = eng.LosslessEstimates()
			}
		}()
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 98})
	for i := 0; i < 150; i++ {
		v, label := stream.Next()
		if _, _, err := eng.Process(v, label); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := eng.Stats().Segments; got != 150 {
		t.Fatalf("Segments = %d, want 150", got)
	}
}

// TestRetargetWhileProcessing moves the link from a monitor goroutine,
// flapping between 3G and 5G, while a poller reads TargetRatio and Stats
// and the decision goroutine processes. Retarget must not write anything
// the decision path reads mid-segment: each segment loads one published
// link, so it is checked against the link it was decided for and none
// violates it, and the last link published is the one in effect.
func TestRetargetWhileProcessing(t *testing.T) {
	const ingest = 4e6
	eng, err := NewOnlineEngine(Config{
		IngestRate: ingest,
		Bandwidth:  sim.Net4G,
		Objective:  AggTarget(query.Sum),
		Seed:       61,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				eng.Retarget(sim.Net3G) // the last link published
				return
			default:
			}
			if i%2 == 0 {
				eng.Retarget(sim.Net3G)
			} else {
				eng.Retarget(sim.Net5G)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = eng.TargetRatio()
			_ = eng.Stats()
		}
	}()
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 103})
	process := func() Result {
		t.Helper()
		v, label := stream.Next()
		res, _, err := eng.Process(v, label)
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		return res
	}
	for i := 0; i < 60; i++ {
		process()
	}
	close(stop)
	wg.Wait()

	want := sim.TargetRatio(ingest, sim.Net3G)
	if got := eng.TargetRatio(); got != want {
		t.Fatalf("target after the last Retarget(3G) = %v, want %v", got, want)
	}
	if res := process(); res.Ratio > want+ratioSlack {
		t.Fatalf("segment after the last Retarget(3G) left at ratio %v, over its target %v", res.Ratio, want)
	}
	if st := eng.Stats(); st.Segments != 61 || st.BandwidthViolations != 0 {
		t.Fatalf("stats: %d segments, %d bandwidth violations; want 61 and 0", st.Segments, st.BandwidthViolations)
	}
}

// TestOnlineStatsSnapshotIsolated proves the returned stats are a snapshot:
// mutating the copy's map must not leak into the engine.
func TestOnlineStatsSnapshotIsolated(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 1,
		Objective:           SingleTarget(TargetRatio),
		Seed:                37,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 99})
	for i := 0; i < 20; i++ {
		v, label := stream.Next()
		if _, _, err := eng.Process(v, label); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	for name := range st.CodecUse {
		st.CodecUse[name] = -1000
	}
	st.CodecUse["bogus"] = 1
	var sum int
	for _, n := range eng.Stats().CodecUse {
		sum += n
	}
	if sum != 20 {
		t.Fatalf("engine stats corrupted through returned copy: codec-use sum = %d, want 20", sum)
	}
}

// TestOnlineSnapshotMutateWhileRunning goes one step beyond polling: the
// monitors actively WRITE to every map a snapshot accessor returns while
// the decision goroutine is processing segments. If any accessor ever
// leaks a live engine map again, -race flags the write against the
// decision goroutine's accounting immediately.
func TestOnlineSnapshotMutateWhileRunning(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2,
		Objective:           SingleTarget(TargetRatio),
		Seed:                53,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := eng.Stats()
				for name := range st.CodecUse {
					st.CodecUse[name] = -1
				}
				st.CodecUse["mutated"] = 1
				for name, est := range eng.LossyEstimates() {
					_ = est
					delete(eng.LossyEstimates(), name)
				}
				le := eng.LosslessEstimates()
				for name := range le {
					le[name] = -99
				}
			}
		}()
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 101})
	const segments = 150
	for i := 0; i < segments; i++ {
		v, label := stream.Next()
		if _, _, err := eng.Process(v, label); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	st := eng.Stats()
	if st.Segments != segments {
		t.Fatalf("Segments = %d, want %d", st.Segments, segments)
	}
	sum := 0
	for name, n := range st.CodecUse {
		if name == "mutated" {
			t.Fatal("monitor mutation leaked into the engine's codec-use map")
		}
		sum += n
	}
	if sum != segments {
		t.Fatalf("codec-use sum = %d, want %d (mutations corrupted the engine)", sum, segments)
	}
}

// TestOfflineSnapshotMutateWhileRunning is the offline counterpart:
// monitors write into the maps Stats returns while the test goroutine
// ingests.
func TestOfflineSnapshotMutateWhileRunning(t *testing.T) {
	eng, err := NewOfflineEngine(Config{
		StorageBytes: 20 << 10,
		Objective:    AggTarget(query.Sum),
		Seed:         59,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := eng.Stats()
				for name := range st.LosslessUse {
					st.LosslessUse[name] = -1
				}
				for name := range st.LossyUse {
					delete(st.LossyUse, name)
				}
				st.LossyUse["mutated"] = 1
			}
		}()
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 102})
	const segments = 100
	for i := 0; i < segments; i++ {
		v, label := stream.Next()
		if err := eng.Ingest(v, label); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	st := eng.Stats()
	if st.SegmentsIngested != segments {
		t.Fatalf("SegmentsIngested = %d, want %d", st.SegmentsIngested, segments)
	}
	if _, ok := st.LossyUse["mutated"]; ok {
		t.Fatal("monitor mutation leaked into the engine's lossy-use map")
	}
}

// TestOfflineStatsPollRace ingests on the test goroutine (the engine's
// decision goroutine) while monitors poll Stats and Snapshot, the exact
// interleaving that raced on the shared LosslessUse/LossyUse maps and the
// accuracy losses.
func TestOfflineStatsPollRace(t *testing.T) {
	eng, err := NewOfflineEngine(Config{
		StorageBytes: 20 << 10,
		Objective:    AggTarget(query.Sum),
		Seed:         41,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := eng.Stats()
				for name := range st.LosslessUse {
					_ = name
				}
				for name := range st.LossyUse {
					_ = name
				}
				_ = eng.Snapshot()
			}
		}()
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 100})
	for i := 0; i < 100; i++ {
		v, label := stream.Next()
		if err := eng.Ingest(v, label); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := eng.Stats().SegmentsIngested; got != 100 {
		t.Fatalf("SegmentsIngested = %d, want 100", got)
	}
}
