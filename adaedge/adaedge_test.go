package adaedge_test

import (
	"fmt"
	"math"
	"testing"

	"repro/adaedge"
	"repro/internal/datasets"
)

func TestPublicOnlinePath(t *testing.T) {
	engine, err := adaedge.NewOnlineEngine(adaedge.Config{
		TargetRatioOverride: 0.2,
		Objective:           adaedge.AggTarget(adaedge.Sum),
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 2})
	for i := 0; i < 40; i++ {
		series, label := stream.Next()
		if _, _, err := engine.Process(series, label); err != nil {
			t.Fatal(err)
		}
	}
	if got := engine.Stats().Segments; got != 40 {
		t.Fatalf("segments = %d", got)
	}
}

func TestPublicOfflinePath(t *testing.T) {
	engine, err := adaedge.NewOfflineEngine(adaedge.Config{
		StorageBytes: 40 << 10,
		Objective:    adaedge.SingleTarget(adaedge.TargetRatio),
		Policy:       adaedge.NewRoundRobin(),
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 4})
	for i := 0; i < 80; i++ {
		series, label := stream.Next()
		if err := engine.Ingest(series, label); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.Query(adaedge.Max); err != nil {
		t.Fatal(err)
	}
}

func TestPublicTargetRatioFor(t *testing.T) {
	got := adaedge.TargetRatioFor(4e6, adaedge.Net4G)
	if math.Abs(got-0.390625) > 1e-9 {
		t.Fatalf("R = %v", got)
	}
}

func TestPublicRegistry(t *testing.T) {
	reg := adaedge.DefaultRegistry(4)
	if len(reg.Names()) != 17 {
		t.Fatalf("codecs = %d", len(reg.Names()))
	}
}

// The README's quickstart, verbatim.
func ExampleNewOnlineEngine() {
	engine, err := adaedge.NewOnlineEngine(adaedge.Config{
		TargetRatioOverride: 0.10,
		Objective:           adaedge.AggTarget(adaedge.Sum),
		Seed:                1,
	})
	if err != nil {
		panic(err)
	}
	segment := make([]float64, 128)
	for i := range segment {
		segment[i] = float64(i % 7)
	}
	res, enc, err := engine.Process(segment, 0)
	if err != nil {
		panic(err)
	}
	// The exact codec depends on the bandit's first exploratory pick; what
	// is guaranteed is that the target ratio is met.
	fmt.Printf("fits=%v lossless=%v points=%d\n", res.Ratio <= 0.10, !res.Lossy, enc.N)
	// Output:
	// fits=true lossless=true points=128
}
