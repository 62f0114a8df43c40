package core

import (
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/obs"
)

func cbfSegments(t testing.TB, n int, seed int64) []LabeledSegment {
	t.Helper()
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: seed})
	segs := make([]LabeledSegment, 0, n)
	for i := 0; i < n; i++ {
		v, label := stream.Next()
		segs = append(segs, LabeledSegment{Values: v, Label: label})
	}
	return segs
}

// seededRun is everything a seeded online run leaves behind that must not
// depend on scheduling, map iteration order or the wall clock.
type seededRun struct {
	Events  []obs.Event     // decision trace: core, bandit and oracle events
	Stages  []obs.SpanStage // segment-lifecycle span stream
	Results []Result        // Duration (wall time) zeroed
	Stats   OnlineStats
}

// runSeeded pushes n CBF segments (stream seed 90) through a fresh engine
// built from cfg with a fresh, spans-enabled observer attached.
func runSeeded(t *testing.T, cfg Config, n int) seededRun {
	t.Helper()
	o := obs.New(1 << 16)
	o.EnableSpans(0)
	cfg.Obs = o
	eng, err := NewOnlineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunOnlineSegments(eng, cbfSegments(t, n, 90))
	if err != nil {
		t.Fatal(err)
	}
	if d := o.Ring().Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events — raise the test ring capacity", d)
	}
	for i := range results {
		results[i].Duration = 0
	}
	return seededRun{Events: o.Ring().Events(), Stages: o.Spans().Stages(), Results: results, Stats: eng.Stats()}
}

// runSeededTwice is the determinism check every trace test shares: two
// runs of cfg must leave identical decision traces, span streams, results
// and stats — a map-iteration or wall-clock leak into any of them shows up
// as a divergence here. It returns the first run for structural checks.
func runSeededTwice(t *testing.T, cfg Config, n int) seededRun {
	t.Helper()
	a, b := runSeeded(t, cfg, n), runSeeded(t, cfg, n)
	if !reflect.DeepEqual(a.Results, b.Results) {
		t.Fatal("same-seed runs decided differently")
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("same-seed runs ended with different stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same-seed trace lengths diverged: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if !reflect.DeepEqual(a.Events[i], b.Events[i]) {
			t.Fatalf("same-seed traces diverged at event %d:\n  %+v\n  %+v", i, a.Events[i], b.Events[i])
		}
	}
	if len(a.Stages) != len(b.Stages) {
		t.Fatalf("same-seed span stream lengths diverged: %d vs %d", len(a.Stages), len(b.Stages))
	}
	for i := range a.Stages {
		if a.Stages[i] != b.Stages[i] {
			t.Fatalf("same-seed span streams diverged at record %d:\n  %+v\n  %+v", i, a.Stages[i], b.Stages[i])
		}
	}
	return a
}
