package core

import (
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/query"
)

// TestDecisionTraceDeterministic pins the §9 event-model invariant: the
// decision trace carries no wall-clock fields and is emitted in decision
// order on one goroutine, so a seeded run reproduces the identical event
// sequence (DESIGN.md §7).
func TestDecisionTraceDeterministic(t *testing.T) {
	const segments = 80
	run := runSeededTwice(t, Config{
		TargetRatioOverride: 0.15,
		Objective:           AggTarget(query.Max),
		Seed:                42,
	}, segments)
	if len(run.Events) == 0 {
		t.Fatal("instrumented run emitted no trace events")
	}
	decisions, banditEvents := 0, 0
	for _, ev := range run.Events {
		switch {
		case ev.Source == "core.online" && ev.Kind == "decision":
			decisions++
		case ev.Source == "core.online" && ev.Kind == ev.Stage:
			// ingest, trial and select stage records
		case ev.Source == "bandit.online.lossless" || ev.Source == "bandit.online.lossy":
			banditEvents++
		default:
			t.Fatalf("unexpected trace event %+v", ev)
		}
	}
	if decisions != segments {
		t.Fatalf("decision events = %d, want one per segment (%d)", decisions, segments)
	}
	if banditEvents == 0 {
		t.Fatal("no bandit select/update events in the trace")
	}
}

// TestOfflineTraceDeterministic is the offline counterpart: ingest plus
// cascade recoding emit one deterministic stream (ingest goroutine only).
func TestOfflineTraceDeterministic(t *testing.T) {
	run := func() []obs.Event {
		o := obs.New(1 << 16)
		eng, err := NewOfflineEngine(Config{
			StorageBytes: 30 << 10,
			Objective:    AggTarget(query.Sum),
			Seed:         7,
			Obs:          o,
		})
		if err != nil {
			t.Fatal(err)
		}
		ingestCBF(t, eng, 120, 92)
		return o.Ring().Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("offline run emitted no trace events")
	}
	var ingests, recodes int
	for _, ev := range a {
		if ev.Source == "core.offline" {
			switch ev.Kind {
			case "ingest":
				ingests++
			case "recode", "fallback":
				recodes++
			}
		}
	}
	if ingests != 120 {
		t.Fatalf("ingest events = %d, want 120", ingests)
	}
	if recodes == 0 {
		t.Fatal("no recode events — budget never tightened, test is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed offline runs produced different traces")
	}
}

// TestObsDoesNotPerturbDecisions proves instrumentation is an observer,
// not a participant: the codec selections of an instrumented run are
// byte-identical to an uninstrumented one with the same seed.
func TestObsDoesNotPerturbDecisions(t *testing.T) {
	run := func(o *obs.Observer) []string {
		eng, err := NewOnlineEngine(Config{
			TargetRatioOverride: 0.15,
			Objective:           SingleTarget(TargetRatio),
			Seed:                42,
			Obs:                 o,
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
	if with, without := run(obs.New(0)), run(nil); !reflect.DeepEqual(with, without) {
		t.Fatal("attaching an observer changed the codec selections")
	}
}

// TestOnlineObsCounters spot-checks the metric side: counters agree with
// the engine's own statistics after a run.
func TestOnlineObsCounters(t *testing.T) {
	o := obs.New(0)
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.15,
		Objective:           SingleTarget(TargetRatio),
		Seed:                3,
		Obs:                 o,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 94})
	for i := 0; i < 50; i++ {
		v, label := stream.Next()
		if _, _, err := eng.Process(v, label); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	snap := o.Registry().Snapshot()
	if got := snap.Counters["core.online.segments"]; got != int64(st.Segments) {
		t.Fatalf("segments counter = %d, stats = %d", got, st.Segments)
	}
	if got := snap.Counters["core.online.segments_lossy"]; got != int64(st.LossySegments) {
		t.Fatalf("lossy counter = %d, stats = %d", got, st.LossySegments)
	}
	var trialObs int64
	for name, h := range snap.Histograms {
		if len(name) > len("core.online.compress_seconds.") && name[:len("core.online.compress_seconds.")] == "core.online.compress_seconds." {
			trialObs += h.Count
		}
	}
	if trialObs < int64(st.Segments) {
		t.Fatalf("trial histogram observations = %d, want >= %d (one per consumed trial)", trialObs, st.Segments)
	}
	if g := snap.Gauges["core.online.effective_target"]; g != 0.15 {
		t.Fatalf("effective_target gauge = %v, want 0.15", g)
	}
}
