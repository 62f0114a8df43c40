package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/query"
)

// Span contract at the engine level (DESIGN.md §7, §9): stage records
// are ordinary trace events emitted on the decision goroutine only,
// timestamps come from the virtual cost model, and attaching an observer
// never perturbs decisions — so a seeded run's trace, stages included, is
// byte-identical run to run, and its decisions equal an uninstrumented
// run's.

// TestOnlineSpansDeterministic pins the stage stream of a seeded run:
// stage order, trace identities, arms, codecs and every virtual-time
// field are identical run to run, and every decision is its segment's
// encode stage.
func TestOnlineSpansDeterministic(t *testing.T) {
	run := runSeededTwice(t, Config{
		TargetRatioOverride: 0.15,
		Objective:           AggTarget(query.Max),
		Seed:                42,
		DeviceID:            9,
	}, 60)
	stages := 0
	for _, ev := range run.Events {
		if ev.Stage == "" {
			continue
		}
		stages++
		if ev.Device != 9 || ev.Trace != obs.TraceOfSegment(ev.ID) {
			t.Fatalf("stage record %+v: want device 9 and trace = segment ID + 1", ev)
		}
		if (ev.Kind == "decision") != (ev.Stage == "encode") {
			t.Fatalf("record %+v: the decision and the encode stage must be one record", ev)
		}
	}
	if stages == 0 {
		t.Fatal("no stage records in the trace")
	}
}

// TestOnlineSpansDoNotPerturbDecisions pins the zero-interference
// invariant: a seeded run with an observer attached — every stage
// recorded — decides exactly as the same run with Obs == nil.
func TestOnlineSpansDoNotPerturbDecisions(t *testing.T) {
	cfg := Config{
		TargetRatioOverride: 0.15,
		Objective:           AggTarget(query.Max),
		Seed:                42,
	}
	run := func(o *obs.Observer) []Result {
		cfg.Obs = o
		eng, err := NewOnlineEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results, err := RunOnlineSegments(eng, cbfSegments(t, 60, 90))
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	o := obs.New(0)
	with, without := run(o), run(nil)
	if o.Ring().Total() == 0 {
		t.Fatal("the attached observer recorded nothing")
	}
	if !reflect.DeepEqual(with, without) {
		t.Fatal("attaching an observer changed the decisions")
	}
}

// TestOnlineSpanLifecycle checks one traced segment's engine-side shape
// under the contextual deadline configuration: ingest first, features
// present, at least one trial, then select and encode; virtual time
// non-decreasing along the chain; identity fields stamped.
func TestOnlineSpanLifecycle(t *testing.T) {
	o := obs.New(0)
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
	groups := o.Ring().Groups()
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

// TestOnlineNoFeasibleInSpan checks that a segment failing with
// ErrNoFeasibleCodec keeps its failure inside its span: Groups puts the
// no_feasible record in the failed segment's group, after its trials.
func TestOnlineNoFeasibleInSpan(t *testing.T) {
	// A registry with only BUFF-lossy cannot reach ratio 0.01 on CBF.
	reg := compress.NewRegistry()
	reg.Register(compress.NewBUFF(4))
	reg.Register(compress.NewBUFFLossy(4))
	o := obs.New(0)
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.01,
		Objective:           SingleTarget(TargetRatio),
		Registry:            reg,
		Seed:                8,
		Obs:                 o,
		DeviceID:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	series, label := datasets.NewCBFStream(datasets.CBFConfig{Seed: 26}).Next()
	if _, _, err := eng.Process(series, label); !errors.Is(err, ErrNoFeasibleCodec) {
		t.Fatalf("Process err = %v, want ErrNoFeasibleCodec", err)
	}
	groups := o.Ring().Groups()
	if len(groups) != 1 {
		t.Fatalf("span groups = %d, want the failed segment's one", len(groups))
	}
	g := groups[0]
	first, last := g.Stages[0], g.Stages[len(g.Stages)-1]
	if g.Device != 5 || first.Stage != "ingest" {
		t.Fatalf("group device %d, first stage %q: want device 5 opened by ingest", g.Device, first.Stage)
	}
	if last.Kind != "no_feasible" || last.ID != first.ID || last.Err == "" {
		t.Fatalf("span ends with %+v, want the segment's no_feasible record", last)
	}
}

// TestOnlineDeadlineFallbackInSpan: a segment every arm of which misses
// the deadline is forced onto the fastest one, and the deadline_fallback
// record saying so carries the segment's Device and Trace, so Groups files
// it in the segment's span. Without them the record fell outside every
// span.
func TestOnlineDeadlineFallbackInSpan(t *testing.T) {
	o := obs.New(0)
	cfg := ctxConfig(200 * time.Nanosecond)
	cfg.Quality = nil
	cfg.Obs, cfg.DeviceID = o, 5
	eng, err := NewOnlineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The gate judges arms by predictions, so the first fallback comes
	// once the predictors have seen a few segments.
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 26})
	var res Result
	for i := 0; eng.Stats().DeadlineFallbacks == 0; i++ {
		if i == 60 {
			t.Fatal("60 segments under an unmeetable deadline and no fallback")
		}
		series, label := stream.Next()
		if res, _, err = eng.Process(series, label); err != nil {
			t.Fatal(err)
		}
	}
	trace := obs.TraceOfSegment(res.SegmentID)
	for _, g := range o.Ring().Groups() {
		if g.Trace != trace {
			continue
		}
		if g.Device != 5 || g.Stages[0].Stage != "ingest" {
			t.Fatalf("group device %d, first stage %q: want device 5 opened by ingest", g.Device, g.Stages[0].Stage)
		}
		for _, ev := range g.Stages {
			if ev.Kind == "deadline_fallback" {
				if ev.ID != res.SegmentID || ev.Codec != res.Codec {
					t.Fatalf("fallback record %+v: want segment %d forced onto %s", ev, res.SegmentID, res.Codec)
				}
				return
			}
		}
		t.Fatalf("segment %d's span holds no deadline_fallback record: %+v", res.SegmentID, g.Stages)
	}
	t.Fatalf("no span group for segment %d", res.SegmentID)
}

// TestAllocsOnlineSpanEmission pins stage emission at zero extra
// allocations: the instrumented evaluator loop, every stage recorded,
// must hold the same steady-state budget as the uninstrumented one
// (RecordStage writes into the preallocated ring under a mutex; no
// per-stage garbage).
func TestAllocsOnlineSpanEmission(t *testing.T) {
	o := obs.New(0)
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
		t.Errorf("instrumented evaluator loop allocates %.3f/op steady-state, budget %v", got, onlineLoopAllocBudget)
	}
}
