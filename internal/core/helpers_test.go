package core

import (
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/store"
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
	Events  []obs.Event // the trace: core events and stages, bandit and oracle events
	Results []Result
	Stats   OnlineStats
}

// runSeeded pushes n CBF segments (stream seed 90) through a fresh engine
// built from cfg with a fresh observer attached.
func runSeeded(t *testing.T, cfg Config, n int) seededRun {
	t.Helper()
	o := obs.New(1 << 16)
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
	return seededRun{Events: o.Ring().Events(), Results: results, Stats: eng.Stats()}
}

// runSeededTwice is the determinism check every trace test shares: two
// runs of cfg must leave identical traces (stages included), results and
// stats — a map-iteration or wall-clock leak into any of them shows up
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
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same-seed traces diverged at event %d:\n  %+v\n  %+v", i, a.Events[i], b.Events[i])
		}
	}
	return a
}

// victim returns a copy of the offline engine's next recoding victim,
// sketch included, without recording an access.
func victim(e *OfflineEngine) (*store.Entry, bool) {
	slot, ok := e.policy.Victim()
	if !ok {
		return nil, false
	}
	en := e.entry(slot, new([]float64))
	return &en, true
}

// peek returns a copy of stored segment id, sketch included, without
// recording an access.
func peek(e *OfflineEngine, id uint64) (*store.Entry, bool) {
	i, ok := e.find(id)
	if !ok {
		return nil, false
	}
	en := e.entry(e.slot(i), new([]float64))
	return &en, true
}

// storedBytes sums the stored payloads, which the storage accounting must
// equal.
func storedBytes(e *OfflineEngine) int64 {
	var total int64
	e.EachEntry(func(en *store.Entry) { total += int64(en.Enc.Size()) })
	return total
}
