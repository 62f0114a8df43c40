package core

import (
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/query"
)

// Span-layer contract at the engine level (DESIGN.md §7, §9): stage
// emission happens on the decision goroutine only, timestamps come from
// the virtual cost model, and enabling spans never perturbs decisions —
// so a seeded run's span stream is byte-identical run to run and its
// decision trace is identical with spans on or off.

// TestOnlineSpansDeterministic pins the span stream of a seeded run:
// stage order, trace identities, arms, codecs and every virtual-time
// field are identical run to run.
func TestOnlineSpansDeterministic(t *testing.T) {
	run := runSeededTwice(t, Config{
		TargetRatioOverride: 0.15,
		Objective:           AggTarget(query.Max),
		Seed:                42,
		DeviceID:            9,
	}, 60)
	if len(run.Stages) == 0 {
		t.Fatal("no span stages recorded")
	}
}

// TestOnlineSpansDoNotPerturbDecisions pins the zero-interference
// invariant: enabling the span layer changes neither the selected codecs
// nor the decision-trace event stream of a seeded run.
func TestOnlineSpansDoNotPerturbDecisions(t *testing.T) {
	run := func(enableSpans bool) ([]obs.Event, []string) {
		o := obs.New(0)
		if enableSpans {
			o.EnableSpans(0)
		}
		eng, err := NewOnlineEngine(Config{
			TargetRatioOverride: 0.15,
			Objective:           AggTarget(query.Max),
			Seed:                42,
			Obs:                 o,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 90})
		var codecs []string
		for i := 0; i < 60; i++ {
			series, label := stream.Next()
			res, _, err := eng.Process(series, label)
			if err != nil {
				t.Fatal(err)
			}
			codecs = append(codecs, res.Codec)
		}
		return o.Ring().Events(), codecs
	}
	evOff, codecsOff := run(false)
	evOn, codecsOn := run(true)
	if !reflect.DeepEqual(codecsOff, codecsOn) {
		t.Fatal("enabling spans changed codec selections")
	}
	if !reflect.DeepEqual(evOff, evOn) {
		t.Fatal("enabling spans changed the decision-trace event stream")
	}
}

// TestOnlineSpanLifecycle checks one traced segment's engine-side shape
// under the contextual deadline configuration: ingest first, features
// present, at least one trial, then select and encode; virtual time
// non-decreasing along the chain; identity fields stamped.
func TestOnlineSpanLifecycle(t *testing.T) {
	o := obs.New(0)
	o.EnableSpans(0)
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.15,
		Objective:           AggTarget(query.Max),
		BanditPolicy:        "contextual",
		Seed:                42,
		Obs:                 o,
		DeviceID:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 90})
	var ids []uint64
	for i := 0; i < 10; i++ {
		series, label := stream.Next()
		res, _, err := eng.Process(series, label)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.SegmentID)
	}
	groups := o.Spans().Groups()
	if len(groups) != len(ids) {
		t.Fatalf("span groups = %d, want %d", len(groups), len(ids))
	}
	for i, g := range groups {
		if g.Device != 3 {
			t.Fatalf("group %d device = %d, want 3", i, g.Device)
		}
		if want := obs.TraceOfSegment(ids[i]); g.Trace != want {
			t.Fatalf("group %d trace = %d, want %d", i, g.Trace, want)
		}
		if g.Complete {
			t.Fatalf("group %d complete without a collector.deliver stage", i)
		}
		counts := map[string]int{}
		vt := -1.0
		for j, s := range g.Stages {
			counts[s.Stage]++
			if s.VT < vt {
				t.Fatalf("group %d stage %d (%s): VT went backwards (%g after %g)", i, j, s.Stage, s.VT, vt)
			}
			vt = s.VT
		}
		if g.Stages[0].Stage != "ingest" {
			t.Fatalf("group %d first stage = %q, want ingest", i, g.Stages[0].Stage)
		}
		for _, stage := range []string{"ingest", "features", "select", "encode"} {
			if counts[stage] != 1 {
				t.Fatalf("group %d has %d %q stages, want 1 (stages: %v)", i, counts[stage], stage, counts)
			}
		}
		if counts["trial"] < 1 {
			t.Fatalf("group %d has no trial stages", i)
		}
		if g.VT <= 0 {
			t.Fatalf("group %d total VT = %g, want > 0 (trials advance virtual time)", i, g.VT)
		}
	}
}

// TestAllocsOnlineSpanEmission pins span emission at zero extra
// allocations: the spans-enabled evaluator loop must hold the same
// steady-state budget as the uninstrumented one (span Record writes into
// the preallocated ring under a mutex; no per-stage garbage).
func TestAllocsOnlineSpanEmission(t *testing.T) {
	skipAllocPinUnderRace(t)
	o := obs.New(0)
	o.EnableSpans(0)
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 1,
		Objective:           SingleTarget(TargetRatio),
		LosslessArms:        []string{"gorilla", "chimp", "sprintz", "buff"},
		Seed:                7,
		Obs:                 o,
	})
	if err != nil {
		t.Fatal(err)
	}
	segs := make([][]float64, 4)
	for s := range segs {
		seg := make([]float64, 128)
		for i := range seg {
			switch {
			case i%5 == 2:
				seg[i] = seg[i-1]
			default:
				seg[i] = float64((i*(s+3))%23)/8 + float64(i)/511
			}
		}
		segs[s] = seg
	}
	step := 0
	run := func() {
		if _, _, err := eng.Process(segs[step%len(segs)], step%2); err != nil {
			t.Fatal(err)
		}
		step++
	}
	for i := 0; i < 400; i++ {
		run()
	}
	if got := mallocsPerOp(2048, run); got > onlineLoopAllocBudget {
		t.Errorf("spans-enabled evaluator loop allocates %.3f/op steady-state, budget %v", got, onlineLoopAllocBudget)
	}
}
