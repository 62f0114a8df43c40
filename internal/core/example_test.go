package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/sim"
)

// The minimal online pipeline: stream segments through an engine with a
// fixed target ratio and a sum-accuracy objective.
func ExampleOnlineEngine() {
	engine, err := core.NewOnlineEngine(core.Config{
		TargetRatioOverride: 0.10,
		Objective:           core.AggTarget(query.Sum),
		Seed:                1,
	})
	if err != nil {
		panic(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 42})
	for i := 0; i < 50; i++ {
		series, label := stream.Next()
		if _, _, err := engine.Process(series, label); err != nil {
			panic(err)
		}
	}
	st := engine.Stats()
	fmt.Printf("segments: %d, all lossy: %v, ratio under target: %v\n",
		st.Segments, st.LossySegments == st.Segments, st.OverallRatio() < 0.12)
	// Output:
	// segments: 50, all lossy: true, ratio under target: true
}

// Deriving the online target ratio from hardware constraints, the paper's
// R = B/(64·I).
func ExampleOnlineEngine_constraints() {
	engine, err := core.NewOnlineEngine(core.Config{
		IngestRate: 4e6, // 4 M points/second
		Bandwidth:  sim.Net4G,
		Objective:  core.SingleTarget(core.TargetRatio),
		Seed:       1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("target ratio: %.4f\n", engine.TargetRatio())
	// Output:
	// target ratio: 0.3906
}

// Offline mode: ingest under a storage budget; the engine recodes old
// segments instead of deleting them, and the data stays queryable.
func ExampleOfflineEngine() {
	engine, err := core.NewOfflineEngine(core.Config{
		StorageBytes: 64 << 10,
		Objective:    core.SingleTarget(core.TargetRatio),
		Seed:         1,
	})
	if err != nil {
		panic(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 7})
	for i := 0; i < 100; i++ {
		series, label := stream.Next()
		if err := engine.Ingest(series, label); err != nil {
			panic(err)
		}
	}
	if _, err := engine.Query(query.Max); err != nil {
		panic(err)
	}
	fmt.Printf("segments stored: %d, within budget: %v\n",
		engine.Segments(), engine.Storage().Used() <= engine.Storage().Capacity())
	// Output:
	// segments stored: 100, within budget: true
}

// A weighted complex objective combining aggregation accuracy and
// compression throughput (paper §IV-D3).
func ExampleWeighted() {
	obj := core.Weighted(
		core.Term{Kind: core.TargetAggAccuracy, Weight: 0.625, Agg: query.Sum},
		core.Term{Kind: core.TargetThroughput, Weight: 0.375},
	)
	if _, err := core.NewEvaluator(obj); err != nil {
		panic(err)
	}
	fmt.Println("terms:", len(obj.Terms))
	// Output:
	// terms: 2
}
