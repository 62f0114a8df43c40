package experiments

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/obs/quality"
	"repro/internal/sim"
)

// seededQuality is one cell's seeded outcome: what the engine decided for a
// fixed stream and seed, with no wall-clock term in it.
type seededQuality struct {
	OverallRatio     float64
	MeanAccuracyLoss float64
	LosslessSegments int
	LossySegments    int
	// FinalRegret, RegretSamples, ArmSwitches and OptimalRate come from the
	// online quality oracle (zero offline, which has none).
	FinalRegret   float64
	RegretSamples int
	ArmSwitches   int
	OptimalRate   float64
	// SpaceUtilization and Recodes describe the offline budget (zero online).
	SpaceUtilization float64
	Recodes          int
	// The deadline gate's counters; DeadlineViolations is 0 on every cell.
	DeadlineFallbacks  int
	DeadlineMisses     int
	DeadlineViolations int
}

const (
	goldenSegments = 120
	goldenSeed     = 11
)

// TestSeededQualityGolden pins the engines' seeded decisions at the
// regret-oracle level: four online cells with the quality oracle sampling
// every fourth decision, and one offline cell under a 140 B/segment budget
// that forces recoding (the paper's Fig 12–13 regime). The literals are the
// quality blocks of BENCH_baseline.json as committed at e23822e, the
// continuous-benchmark document this test replaced, copied verbatim. A
// failure means a decision, reward or ratio moved, not that a literal needs
// refreshing.
func TestSeededQualityGolden(t *testing.T) {
	rforest := trainCBFModel("rforest")
	kmeans := trainCBFModel("kmeans")
	ratio := core.SingleTarget(core.TargetRatio)
	for _, tc := range []struct {
		name string
		run  func(*testing.T) seededQuality
		want seededQuality
	}{
		{"online_ratio", func(t *testing.T) seededQuality {
			return onlineQuality(runOnlineCell(t, ratio, 0.15, "", 0))
		}, seededQuality{
			OverallRatio: 0.12875162760416667, LossySegments: 120,
			FinalRegret: 0.03125, RegretSamples: 30, ArmSwitches: 61, OptimalRate: 0.6,
		}},
		{"online_ml_rforest", func(t *testing.T) seededQuality {
			return onlineQuality(runOnlineCell(t, core.MLTarget(rforest), 0.1, "", 0))
		}, seededQuality{
			OverallRatio: 0.08487955729166667, MeanAccuracyLoss: 0.03333333333333333, LossySegments: 120,
			FinalRegret: 0, RegretSamples: 30, ArmSwitches: 93, OptimalRate: 0.26666666666666666,
		}},
		// The contextual pair mirrors online_ratio (same objective, stream
		// and ratio); the deadline cell adds a 5µs gate, which with no uplink
		// term bounds the cost-model encode latency alone.
		{"online_ctx_ratio", func(t *testing.T) seededQuality {
			return onlineQuality(runOnlineCell(t, ratio, 0.15, "contextual", 0))
		}, seededQuality{
			OverallRatio: 0.12862141927083334, LossySegments: 120,
			FinalRegret: 0.03125, RegretSamples: 30, ArmSwitches: 8, OptimalRate: 0.9333333333333333,
		}},
		{"online_ctx_deadline", func(t *testing.T) seededQuality {
			return onlineQuality(runOnlineCell(t, ratio, 0.15, "contextual", 5*time.Microsecond))
		}, seededQuality{
			OverallRatio: 0.128662109375, LossySegments: 120,
			FinalRegret: 0.0361328125, RegretSamples: 30, ArmSwitches: 8, OptimalRate: 0.9333333333333333,
			DeadlineMisses: 1,
		}},
		{"offline_ml_kmeans", func(t *testing.T) seededQuality {
			return offlineQualityCell(t, core.MLTarget(kmeans))
		}, seededQuality{
			OverallRatio: 0.1083740234375, MeanAccuracyLoss: 0.13333333333333333, LossySegments: 120,
			SpaceUtilization: 0.7926785714285715, Recodes: 252,
		}},
	} {
		got := tc.run(t)
		if got.DeadlineViolations != 0 {
			t.Errorf("%s: %d deadline violations, the gate's invariant broke", tc.name, got.DeadlineViolations)
		}
		if got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// runOnlineCell runs one online cell over the seeded CBF stream with the
// quality oracle scoring every fourth decision. policy "" selects the
// default ε-greedy; a positive deadline arms the per-segment latency gate.
func runOnlineCell(t *testing.T, obj core.Objective, ratio float64, policy string, deadline time.Duration) (quality.Snapshot, core.OnlineStats) {
	t.Helper()
	eng, err := core.NewOnlineEngine(core.Config{
		TargetRatioOverride: ratio,
		Objective:           obj,
		BanditPolicy:        policy,
		Deadline:            deadline,
		Seed:                goldenSeed,
		Quality:             &quality.Config{SampleEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: goldenSeed + 1})
	segs := make([]core.LabeledSegment, goldenSegments)
	for i := range segs {
		v, l := stream.Next()
		segs[i] = core.LabeledSegment{Values: v, Label: l}
	}
	if _, err := core.RunOnlineSegments(eng, segs); err != nil {
		t.Fatal(err)
	}
	return eng.Quality().Snapshot(), eng.Stats()
}

func onlineQuality(qs quality.Snapshot, st core.OnlineStats) seededQuality {
	return seededQuality{
		OverallRatio:       st.OverallRatio(),
		MeanAccuracyLoss:   st.MeanAccuracyLoss(),
		LosslessSegments:   st.LosslessSegments,
		LossySegments:      st.LossySegments,
		FinalRegret:        qs.CumulativeRegret,
		RegretSamples:      qs.Samples,
		ArmSwitches:        qs.ArmSwitches,
		OptimalRate:        qs.OptimalRate,
		DeadlineFallbacks:  st.DeadlineFallbacks,
		DeadlineMisses:     st.DeadlineMisses,
		DeadlineViolations: st.DeadlineViolations,
	}
}

// offlineQualityCell runs the offline cell: 140 B/segment (≈14% of raw)
// is recoding pressure without starvation.
func offlineQualityCell(t *testing.T, obj core.Objective) seededQuality {
	t.Helper()
	eng, err := core.NewOfflineEngine(core.Config{
		StorageBytes: goldenSegments * 140,
		Objective:    obj,
		Seed:         goldenSeed,
		CodecCost:    core.DefaultCodecCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: goldenSeed + 2})
	segs := make([]core.LabeledSegment, goldenSegments)
	rawBytes := 0
	for i := range segs {
		v, l := stream.Next()
		segs[i] = core.LabeledSegment{Values: v, Label: l}
		rawBytes += 8 * len(v)
	}
	for _, s := range segs {
		if err := eng.Ingest(s.Values, s.Label); err != nil {
			if errors.Is(err, sim.ErrBudgetExceeded) {
				break
			}
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	snap := eng.Snapshot()
	return seededQuality{
		OverallRatio:     float64(eng.Storage().Used()) / float64(rawBytes),
		MeanAccuracyLoss: snap.MeanAccuracyLoss,
		LossySegments:    st.SegmentsIngested,
		SpaceUtilization: snap.SpaceUtilization,
		Recodes:          st.Recodes,
	}
}
