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
