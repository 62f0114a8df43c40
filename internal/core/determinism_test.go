package core

import (
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/query"
)

// Reproducibility is a design requirement: every stochastic component is
// seed-driven, so two runs with identical configuration must make
// identical decisions.

func TestOnlineEngineDeterministic(t *testing.T) {
	run := func() []string {
		e, err := NewOnlineEngine(Config{
			TargetRatioOverride: 0.15,
			Objective:           AggTarget(query.Max),
			Seed:                42,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 90})
		var codecs []string
		for i := 0; i < 80; i++ {
			series, label := stream.Next()
			res, _, err := e.Process(series, label)
			if err != nil {
				t.Fatal(err)
			}
			codecs = append(codecs, res.Codec)
		}
		return codecs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("online runs with the same seed diverged")
	}
}

func TestOnlineEngineSeedSensitive(t *testing.T) {
	run := func(seed int64) map[string]int {
		e, err := NewOnlineEngine(Config{
			TargetRatioOverride: 0.15,
			Objective:           AggTarget(query.Max),
			Seed:                seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 91})
		for i := 0; i < 60; i++ {
			series, label := stream.Next()
			if _, _, err := e.Process(series, label); err != nil {
				t.Fatal(err)
			}
		}
		return e.Stats().CodecUse
	}
	// Different seeds explore differently; at minimum the engines must
	// both run to completion. (Identical use maps are possible but
	// extremely unlikely across 60 segments; tolerate them with a log.)
	a, b := run(1), run(2)
	if reflect.DeepEqual(a, b) {
		t.Logf("note: seeds 1 and 2 produced identical selections: %v", a)
	}
}

func TestOfflineEngineDeterministic(t *testing.T) {
	run := func() (OfflineStats, Snapshot) {
		e, err := NewOfflineEngine(Config{
			StorageBytes: 30 << 10,
			Objective:    AggTarget(query.Sum),
			Seed:         7,
		})
		if err != nil {
			t.Fatal(err)
		}
		ingestCBF(t, e, 120, 92)
		return e.Stats(), e.Snapshot()
	}
	stA, snapA := run()
	stB, snapB := run()
	if !reflect.DeepEqual(stA.LossyUse, stB.LossyUse) || !reflect.DeepEqual(stA.LosslessUse, stB.LosslessUse) {
		t.Fatalf("offline selections diverged: %v vs %v", stA.LossyUse, stB.LossyUse)
	}
	if stA.Recodes != stB.Recodes || stA.Fallbacks != stB.Fallbacks {
		t.Fatalf("recode counts diverged: %+v vs %+v", stA, stB)
	}
	if snapA != snapB {
		t.Fatalf("snapshots diverged: %+v vs %+v", snapA, snapB)
	}
}

func TestPipelineDeterministicPerWorkerSeeds(t *testing.T) {
	// Worker seeds derive from the base seed: two pipelines with the same
	// configuration produce the same merged codec-use histogram when work
	// is distributed identically (single worker avoids racing the queue).
	run := func() map[string]int {
		p, err := NewPipeline(Config{
			TargetRatioOverride: 0.2,
			Objective:           SingleTarget(TargetRatio),
			Seed:                5,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start(t.Context())
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 93})
		for i := 0; i < 50; i++ {
			series, label := stream.Next()
			if err := p.Submit(LabeledSegment{Values: series, Label: label}); err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
		return p.Stats().CodecUse
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("pipeline runs diverged: %v vs %v", a, b)
	}
}
