package core

import (
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/obs/quality"
	"repro/internal/query"
)

// TestQualityTraceDeterministic extends the §9 determinism invariant to
// the regret oracle: with quality observability enabled, a seeded run
// still reproduces the identical event stream. The oracle's candidate set
// and rewards are pure functions of the decision inputs, and it reruns
// every candidate trial on the decision goroutine, so its regret events
// land in decision order.
func TestQualityTraceDeterministic(t *testing.T) {
	const segments = 80
	run := runSeededTwice(t, Config{
		TargetRatioOverride: 0.15,
		Objective:           AggTarget(query.Max),
		Seed:                42,
		Quality:             &quality.Config{SampleEvery: 4},
	}, segments)
	regrets := 0
	for _, ev := range run.Events {
		if ev.Source == "quality.online" {
			if ev.Kind != "regret" {
				t.Fatalf("unexpected quality event kind %q", ev.Kind)
			}
			if ev.Value < 0 {
				t.Fatalf("negative regret in %+v", ev)
			}
			regrets++
		}
	}
	// SampleEvery: 4 over ids 0..79 → ids 0, 4, ..., 76.
	if want := segments / 4; regrets != want {
		t.Fatalf("regret events = %d, want %d", regrets, want)
	}
}

// TestQualityDoesNotPerturbDecisions proves the oracle observes without
// participating: attaching it changes no codec selection. It would fail
// if the oracle shared the engine's stateful evaluator or touched a
// policy's RNG.
func TestQualityDoesNotPerturbDecisions(t *testing.T) {
	run := func(qc *quality.Config) []string {
		eng, err := NewOnlineEngine(Config{
			TargetRatioOverride: 0.15,
			Objective:           SingleTarget(TargetRatio),
			Seed:                42,
			Quality:             qc,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 90})
		codecs := make([]string, 0, 60)
		for i := 0; i < 60; i++ {
			v, label := stream.Next()
			res, _, err := eng.Process(v, label)
			if err != nil {
				t.Fatal(err)
			}
			codecs = append(codecs, res.Codec)
		}
		return codecs
	}
	with, without := run(&quality.Config{SampleEvery: 2}), run(nil)
	if !reflect.DeepEqual(with, without) {
		t.Fatal("attaching the quality oracle changed the codec selections")
	}
}

// TestQualitySnapshot checks the tracker's aggregate view after a run:
// every decision attributed, sampled counts matching the sampling rate,
// and the per-phase arm table populated from the live policies.
func TestQualitySnapshot(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.15,
		Objective:           AggTarget(query.Max),
		Seed:                7,
		Quality:             &quality.Config{SampleEvery: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 31})
	const segments = 50
	for i := 0; i < segments; i++ {
		v, label := stream.Next()
		if _, _, err := eng.Process(v, label); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Quality().Snapshot()
	if snap.Decisions != segments {
		t.Fatalf("Decisions = %d, want %d", snap.Decisions, segments)
	}
	if want := segments / 5; snap.Samples != want {
		t.Fatalf("Samples = %d, want %d", snap.Samples, want)
	}
	if snap.CumulativeRegret < 0 {
		t.Fatalf("negative cumulative regret %v", snap.CumulativeRegret)
	}
	if snap.OptimalHits < 0 || snap.OptimalHits > snap.Samples {
		t.Fatalf("OptimalHits = %d out of range [0, %d]", snap.OptimalHits, snap.Samples)
	}
	var attributed int
	for _, cs := range snap.Codecs {
		attributed += cs.Chosen
	}
	if attributed != segments {
		t.Fatalf("per-codec Chosen sums to %d, want %d", attributed, segments)
	}
	if len(snap.Arms["lossless"]) == 0 || len(snap.Arms["lossy"]) == 0 {
		t.Fatalf("arm table missing a phase: %+v", snap.Arms)
	}
	var plays int
	for _, a := range snap.Arms["lossy"] {
		plays += a.Count
	}
	if plays == 0 {
		t.Fatal("lossy arm table reports zero plays after a lossy run")
	}
}

// TestQualityDisabled pins the zero-cost default: no Quality config means
// a nil tracker and nil-safe accessors.
func TestQualityDisabled(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.15,
		Objective:           SingleTarget(TargetRatio),
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Quality() != nil {
		t.Fatal("Quality() non-nil without Config.Quality")
	}
	var tr *quality.Tracker
	if tr.Sampled(0) {
		t.Fatal("nil tracker claims to sample")
	}
	if s := tr.Snapshot(); s.Decisions != 0 {
		t.Fatalf("nil tracker snapshot non-zero: %+v", s)
	}
}

// TestBanditPolicyConfig covers the named-policy switch: gradient is
// constructible online and offline, and unknown names fail construction.
func TestBanditPolicyConfig(t *testing.T) {
	if _, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.15,
		Objective:           SingleTarget(TargetRatio),
		BanditPolicy:        "gradient",
		Seed:                1,
	}); err != nil {
		t.Fatalf("gradient online engine: %v", err)
	}
	if _, err := NewOfflineEngine(Config{
		StorageBytes: 32 << 10,
		Objective:    AggTarget(query.Sum),
		BanditPolicy: "gradient",
		Seed:         1,
	}); err != nil {
		t.Fatalf("gradient offline engine: %v", err)
	}
	if _, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.15,
		Objective:           SingleTarget(TargetRatio),
		BanditPolicy:        "thompson",
		Seed:                1,
	}); err == nil {
		t.Fatal("unknown BanditPolicy accepted")
	}
}
