package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/datasets"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

func kmeansModel(t *testing.T) ml.Classifier {
	t.Helper()
	X, _ := datasets.CBF(150, datasets.CBFConfig{Seed: 31})
	m, err := ml.FitKMeans(X, ml.KMeansConfig{K: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ingestCBF pushes n CBF segments into the engine, failing the test on
// error.
func ingestCBF(t *testing.T, e *OfflineEngine, n int, seed int64) {
	t.Helper()
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: seed})
	for i := 0; i < n; i++ {
		series, label := stream.Next()
		if err := e.Ingest(series, label); err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
	}
}

func TestOfflineRequiresStorage(t *testing.T) {
	if _, err := NewOfflineEngine(Config{Objective: SingleTarget(TargetRatio)}); err == nil {
		t.Fatal("expected error without StorageBytes")
	}
}

// TestOfflineRejectsUnknownArms: the arms' codecs are resolved at
// construction, so a name the registry does not have — or has, but not as a
// lossy codec — fails there and not as a nil codec on the first segment.
func TestOfflineRejectsUnknownArms(t *testing.T) {
	base := Config{StorageBytes: 1 << 20, Objective: SingleTarget(TargetRatio), Seed: 1}
	for name, arms := range map[string]func(*Config){
		"unknown lossless arm":  func(c *Config) { c.LosslessArms = []string{"gorilla", "gorila"} },
		"unknown lossy arm":     func(c *Config) { c.LossyArms = []string{"paa", "nope"} },
		"lossless as lossy arm": func(c *Config) { c.LossyArms = []string{"paa", "gorilla"} },
	} {
		cfg := base
		arms(&cfg)
		if _, err := NewOfflineEngine(cfg); err == nil {
			t.Errorf("%s: engine built", name)
		}
	}
}

func TestOfflineRejectsEmptySegment(t *testing.T) {
	e, err := NewOfflineEngine(Config{StorageBytes: 1 << 20, Objective: SingleTarget(TargetRatio), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(nil, 0); err != compress.ErrEmptyInput {
		t.Fatalf("want ErrEmptyInput, got %v", err)
	}
}

func TestOfflineStaysWithinBudget(t *testing.T) {
	// 200 CBF segments raw ≈ 200×1KiB = 200 KiB into a 40 KiB budget:
	// heavy recoding required, but the engine must never exceed capacity.
	e, err := NewOfflineEngine(Config{
		StorageBytes: 40 << 10,
		Objective:    MLTarget(kmeansModel(t)),
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 200, 40)
	if got := e.Storage().Used(); got > e.Storage().Capacity() {
		t.Fatalf("storage used %d exceeds capacity %d", got, e.Storage().Capacity())
	}
	if e.Segments() != 200 {
		t.Fatalf("segments stored = %d, want 200 (no deletion, only recoding)", e.Segments())
	}
	if e.Stats().Recodes == 0 {
		t.Fatal("expected recoding under a tight budget")
	}
}

func TestOfflineNoRecodeUnderLooseBudget(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 64 << 20,
		Objective:    SingleTarget(TargetRatio),
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 50, 41)
	if e.Stats().Recodes != 0 {
		t.Fatalf("recodes = %d under a loose budget, want 0", e.Stats().Recodes)
	}
	snap := e.Snapshot()
	if snap.MeanAccuracyLoss != 0 {
		t.Fatalf("all-lossless accuracy loss = %v, want 0", snap.MeanAccuracyLoss)
	}
	if snap.Segments != 50 {
		t.Fatalf("snapshot segments = %d", snap.Segments)
	}
}

func TestOfflineAccuracyLossGrowsWithPressure(t *testing.T) {
	model := kmeansModel(t)
	run := func(budget int64) float64 {
		e, err := NewOfflineEngine(Config{
			StorageBytes: budget,
			Objective:    MLTarget(model),
			Seed:         4,
		})
		if err != nil {
			t.Fatal(err)
		}
		ingestCBF(t, e, 150, 42)
		return e.Snapshot().MeanAccuracyLoss
	}
	loose := run(8 << 20)
	tight := run(30 << 10)
	if tight < loose {
		t.Fatalf("tighter budget should cost accuracy: loose=%v tight=%v", loose, tight)
	}
	if loose != 0 {
		t.Fatalf("loose budget should be lossless: %v", loose)
	}
}

func TestOfflineVirtualTimeAdvances(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 1 << 20,
		IngestRate:   128_000, // 1000 segments/s at length 128
		Objective:    SingleTarget(TargetRatio),
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 100, 43)
	if got := e.Clock().Seconds(); got != 0.1 {
		t.Fatalf("virtual time = %v, want 0.1", got)
	}
}

func TestOfflineQueryProtectsSegmentsUnderLRU(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 60 << 10,
		Objective:    MLTarget(kmeansModel(t)),
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 40, 44)
	// Touch segment 0 repeatedly while pressure mounts.
	for i := 0; i < 100; i++ {
		if _, err := e.QuerySegment(0); err != nil {
			t.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: int64(100 + i)})
		series, label := stream.Next()
		if err := e.Ingest(series, label); err != nil {
			t.Fatal(err)
		}
	}
	// Segment 0 must have survived with fewer recodes than its cohort.
	var level0 int
	var otherLevels, others int
	e.EachEntry(func(en *store.Entry) {
		if en.ID == 0 {
			level0 = int(en.Level)
		} else if en.ID < 40 {
			otherLevels += int(en.Level)
			others++
		}
	})
	if others == 0 {
		t.Fatal("no cohort entries found")
	}
	meanOther := float64(otherLevels) / float64(others)
	if float64(level0) > meanOther {
		t.Fatalf("hot segment recoded %d times vs cohort mean %.2f — LRU not protecting it", level0, meanOther)
	}
}

func TestOfflineRRDFallbackUnderExtremePressure(t *testing.T) {
	// A minuscule budget forces recoding past every codec's floor; the
	// engine must fall back to RRD-sample rather than fail.
	e, err := NewOfflineEngine(Config{
		StorageBytes: 6 << 10,
		Objective:    MLTarget(kmeansModel(t)),
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 120, 45)
	if e.Stats().Fallbacks == 0 {
		t.Fatal("expected RRD-sample fallbacks under extreme pressure")
	}
	if e.Storage().Used() > e.Storage().Capacity() {
		t.Fatal("budget exceeded")
	}
}

func TestOfflineBudgetExceededWhenImpossible(t *testing.T) {
	// A budget smaller than even one maximally-compressed segment cannot
	// be satisfied.
	e, err := NewOfflineEngine(Config{
		StorageBytes: 64,
		Objective:    SingleTarget(TargetRatio),
		Seed:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 46})
	var lastErr error
	for i := 0; i < 20 && lastErr == nil; i++ {
		series, label := stream.Next()
		lastErr = e.Ingest(series, label)
	}
	if !errors.Is(lastErr, sim.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", lastErr)
	}
}

func TestOfflineRecodeBudgetStarvation(t *testing.T) {
	// With the CPU budget model and an absurdly slow simulated CPU, the
	// recoder cannot keep up and the budget must eventually blow — the
	// paper's Fig 14 failure mode.
	e, err := NewOfflineEngine(Config{
		StorageBytes: 30 << 10,
		IngestRate:   1e12, // virtually no wall-clock budget per segment
		Objective:    MLTarget(kmeansModel(t)),
		RecodeBudget: true,
		CPUScale:     1e9,
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 47})
	var lastErr error
	for i := 0; i < 500 && lastErr == nil; i++ {
		series, label := stream.Next()
		lastErr = e.Ingest(series, label)
	}
	if !errors.Is(lastErr, sim.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded from recoder starvation, got %v", lastErr)
	}
	if e.Stats().RecodeSkips == 0 {
		t.Fatal("expected recode skips before failure")
	}
}

func TestOfflineVirtualRecodePath(t *testing.T) {
	// After a segment has been recoded once with a Recoder codec, further
	// recodes of the same codec should use the direct path.
	e, err := NewOfflineEngine(Config{
		StorageBytes: 20 << 10,
		Objective:    AggTarget(query.Sum),
		Seed:         10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 150, 48)
	st := e.Stats()
	if st.Recodes == 0 {
		t.Fatal("no recodes happened")
	}
	if st.VirtualRecodes == 0 {
		t.Fatal("expected some virtual-decompression recodes")
	}
}

func TestOfflineQueryAggregation(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 4 << 20,
		Objective:    SingleTarget(TargetRatio),
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 49})
	var want float64
	for i := 0; i < 20; i++ {
		series, label := stream.Next()
		for _, v := range series {
			want += v
		}
		if err := e.Ingest(series, label); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.Query(query.Sum)
	if err != nil {
		t.Fatal(err)
	}
	// All segments are lossless under this loose budget: sums must match.
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if _, err := e.QuerySegment(9999); err == nil {
		t.Fatal("unknown segment should error")
	}
}

func TestOfflineSnapshotSeries(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 25 << 10,
		Objective:    MLTarget(kmeansModel(t)),
		Seed:         12,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 50})
	var snaps []Snapshot
	for i := 0; i < 120; i++ {
		series, label := stream.Next()
		if err := e.Ingest(series, label); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			snaps = append(snaps, e.Snapshot())
		}
	}
	// Time must be monotone, utilization within [0,1], loss non-negative.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Seconds <= snaps[i-1].Seconds {
			t.Fatal("snapshot time not monotone")
		}
	}
	for _, s := range snaps {
		if s.SpaceUtilization < 0 || s.SpaceUtilization > 1 {
			t.Fatalf("utilization %v out of range", s.SpaceUtilization)
		}
		if s.MeanAccuracyLoss < 0 || s.MeanAccuracyLoss > 1 {
			t.Fatalf("accuracy loss %v out of range", s.MeanAccuracyLoss)
		}
	}
	// Late snapshots should show accuracy loss (recoding happened).
	if snaps[len(snaps)-1].MeanAccuracyLoss == 0 && e.Stats().Recodes > 0 {
		t.Log("note: recoding occurred but produced zero measured loss (possible for KMeans-stable codecs)")
	}
}

func TestOfflineRoundRobinPolicy(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 30 << 10,
		Objective:    MLTarget(kmeansModel(t)),
		Policy:       store.NewRoundRobin(),
		Seed:         13,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 120, 51)
	if e.Stats().Recodes == 0 {
		t.Fatal("expected recodes")
	}
	// Under round-robin the oldest segments must be the most recoded.
	var oldLevels, newLevels, olds, news int
	e.EachEntry(func(en *store.Entry) {
		if en.ID < 30 {
			oldLevels += int(en.Level)
			olds++
		} else if en.ID >= 90 {
			newLevels += int(en.Level)
			news++
		}
	})
	if olds == 0 || news == 0 {
		t.Fatal("cohorts missing")
	}
	if float64(oldLevels)/float64(olds) <= float64(newLevels)/float64(news) {
		t.Fatalf("round-robin should recode old segments more: old %.2f new %.2f",
			float64(oldLevels)/float64(olds), float64(newLevels)/float64(news))
	}
}

func TestOfflineStatsConsistency(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 30 << 10,
		Objective:    MLTarget(kmeansModel(t)),
		Seed:         14,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 100, 52)
	st := e.Stats()
	if st.SegmentsIngested != 100 {
		t.Fatalf("ingested = %d", st.SegmentsIngested)
	}
	lossless := 0
	for _, n := range st.LosslessUse {
		lossless += n
	}
	if lossless != 100 {
		t.Fatalf("lossless selections = %d, want 100", lossless)
	}
	lossy := 0
	for _, n := range st.LossyUse {
		lossy += n
	}
	if lossy != st.Recodes {
		t.Fatalf("lossy selections %d != recodes %d", lossy, st.Recodes)
	}
}

// TestOfflineFloorTableBounded: rows name their floor vectors in a table
// that holds each distinct vector once, so variable-length ingest grows it
// by the distinct (length, floors) vectors, not by the segments; and the
// interning is exact, each row reading back the very floats Ingest took
// off its raw.
func TestOfflineFloorTableBounded(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 1200 * 140,
		Objective:    MLTarget(kmeansModel(t)),
		CodecCost:    DefaultCodecCost,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{128, 96, 128, 64, 200}
	raws := map[uint64][]float64{}
	distinct := map[string]bool{}
	for i, s := range cbfSegments(t, 1200, 23) {
		values := make([]float64, lengths[i%len(lengths)])
		for j := range values {
			values[j] = s.Values[j%len(s.Values)]
		}
		raws[e.nextID] = values
		distinct[fmt.Sprint(e.appendFloors(nil, values))] = true
		if err := e.Ingest(values, s.Label); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Recodes == 0 {
		t.Fatal("no recodes: the floors were never read")
	}
	if got := len(e.floorTab) / e.floorLen; got != len(distinct) || got > len(raws)/10 {
		t.Errorf("the floor table holds %d vectors for %d distinct over %d segments", got, len(distinct), len(raws))
	} else {
		t.Logf("%d floor vectors for %d segments", got, len(raws))
	}
	for i := 0; i < e.stored(); i++ {
		r := e.nth(i)
		want := e.appendFloors(nil, raws[r.id])
		if got := e.floorsOf(r); !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("segment %d reads floors %v, took %v", r.id, got, want)
		}
	}
}
