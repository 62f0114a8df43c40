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

// TestConcurrentEnginesShareNothing runs four engines with one seed over
// one stream on four goroutines, the way experiments.Scalability uses more
// cores. Each must decide and encode exactly as the same engine run alone:
// each engine owns its trial buffers and payload slab, and what engines
// share, the default codec catalog, keeps no state between calls. A trial
// buffer kept where engines share it, such as a package-level variable,
// fails here under -race.
func TestConcurrentEnginesShareNothing(t *testing.T) {
	segs := shiftPool(300, 13)
	type decision struct {
		codec   string
		lossy   bool
		reward  float64
		payload string
	}
	run := func() ([]decision, error) {
		eng, err := NewOnlineEngine(Config{
			TargetRatioOverride: 0.2,
			Objective:           AggTarget(query.Max),
			Seed:                7,
		})
		if err != nil {
			return nil, err
		}
		out := make([]decision, len(segs))
		for i, v := range segs {
			res, enc, err := eng.Process(v, 0)
			if err != nil {
				return nil, err
			}
			out[i] = decision{res.Codec, res.Lossy, res.Reward, string(enc.Data)}
		}
		return out, nil
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	lossy := 0
	for _, d := range want {
		if d.lossy {
			lossy++
		}
	}
	if lossy == 0 || lossy == len(want) {
		t.Fatalf("%d of %d segments lossy: the stream must reach both phases", lossy, len(want))
	}

	const engines = 4
	got := make([][]decision, engines)
	errs := make([]error, engines)
	var wg sync.WaitGroup
	for g := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = run()
		}()
	}
	wg.Wait()
	for g := range engines {
		if errs[g] != nil {
			t.Fatalf("engine %d: %v", g, errs[g])
		}
		for i := range want {
			if got[g][i] != want[i] {
				t.Fatalf("engine %d, segment %d: %s lossy=%v reward %v (%d payload bytes), want %s lossy=%v reward %v (%d bytes) as when run alone",
					g, i, got[g][i].codec, got[g][i].lossy, got[g][i].reward, len(got[g][i].payload),
					want[i].codec, want[i].lossy, want[i].reward, len(want[i].payload))
			}
		}
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
// decision goroutine) while monitors poll Stats, Snapshot and Segments, the
// exact interleaving that raced on the shared LosslessUse/LossyUse maps and
// the accuracy losses. Snapshot and Segments walk the engine's rows, so
// the run crosses more than three entry chunks, each of which Ingest
// appends, and drains once midway, which frees the oldest chunk for the
// next to reuse. CI runs it 50 times under -race.
func TestOfflineStatsPollRace(t *testing.T) {
	const segments, drainAt = 4*rowChunk + 20, 2 * rowChunk
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
				if snap, n := eng.Snapshot(), eng.Segments(); snap.Segments > segments || n > segments {
					t.Errorf("%d segments stored (snapshot %d), only %d ingested", n, snap.Segments, segments)
					return
				}
			}
		}()
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 100})
	drained := 0
	for i := 0; i < segments; i++ {
		if i == drainAt {
			drained = drain(t, eng, sim.Net5G, 3600).SegmentsSent
		}
		v, label := stream.Next()
		if err := eng.Ingest(v, label); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := eng.Stats().SegmentsIngested; got != segments {
		t.Fatalf("SegmentsIngested = %d, want %d", got, segments)
	}
	if drained != drainAt || eng.Segments() != segments-drainAt || eng.Snapshot().Segments != segments-drainAt {
		t.Fatalf("drained %d of %d, %d stored (snapshot %d), want %d", drained, drainAt, eng.Segments(), eng.Snapshot().Segments, segments-drainAt)
	}
}
