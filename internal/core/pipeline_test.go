package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/query"
)

func TestPipelineProcessesAllSegments(t *testing.T) {
	p, err := NewPipeline(Config{
		TargetRatioOverride: 0.25,
		Objective:           AggTarget(query.Sum),
		Seed:                1,
		Workers:             4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 4 {
		t.Fatalf("workers = %d", p.Workers())
	}
	p.Start(context.Background())
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 2})
	const n = 200
	for i := 0; i < n; i++ {
		series, label := stream.Next()
		if err := p.Submit(LabeledSegment{Values: series, Label: label}); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if errs := p.Errors(); len(errs) != 0 {
		t.Fatalf("pipeline errors: %v", errs)
	}
	st := p.Stats()
	if st.Segments != n {
		t.Fatalf("processed %d segments, want %d", st.Segments, n)
	}
	if st.OverallRatio() > 0.3 {
		t.Fatalf("overall ratio %v exceeds target band", st.OverallRatio())
	}
}

// TestPipelineContextCancel: cancelling the Start context stops the
// workers, after which nothing drains the queue — Submit must report the
// cancellation, whether it was already blocked on a full queue or arrives
// afterwards, instead of blocking forever.
func TestPipelineContextCancel(t *testing.T) {
	p, err := NewPipeline(Config{
		TargetRatioOverride: 0.5,
		Objective:           SingleTarget(TargetRatio),
		Seed:                3,
		Workers:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.Start(ctx)
	seg := cbfSegments(t, 1, 2)[0]
	flowing := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if err := p.Submit(seg); err != nil {
				done <- err
				return
			}
			if i == 0 {
				close(flowing)
			}
		}
	}()
	<-flowing
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit still blocked 10s after the Start context was cancelled")
	}
	for i := 0; i < 4*p.Workers()+2; i++ {
		if err := p.Submit(seg); !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit %d on a cancelled pipeline = %v, want context.Canceled", i, err)
		}
	}
	p.Close() // must not hang with jobs still queued
}

// TestPipelineStatsMergesEveryCounter: the merged view must carry every
// OnlineStats field, the deadline gate's counters included — a pipeline
// that reports 0 violations regardless hides the invariant they watch.
func TestPipelineStatsMergesEveryCounter(t *testing.T) {
	p, err := NewPipeline(Config{
		TargetRatioOverride: 0.15,
		Objective:           SingleTarget(TargetRatio),
		BanditPolicy:        "contextual",
		Deadline:            5 * time.Microsecond,
		Seed:                6,
		Workers:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	for _, seg := range cbfSegments(t, 120, 3) {
		if err := p.Submit(seg); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	var want OnlineStats
	for _, e := range p.engines {
		st := e.Stats()
		want.Segments += st.Segments
		want.DeadlineRejects += st.DeadlineRejects
		want.DeadlineFallbacks += st.DeadlineFallbacks
		want.DeadlineMisses += st.DeadlineMisses
		want.DeadlineViolations += st.DeadlineViolations
	}
	got := p.Stats()
	if got.Segments != 120 || want.Segments != 120 {
		t.Fatalf("segments: merged %d, per-engine sum %d, want 120", got.Segments, want.Segments)
	}
	if got.DeadlineRejects == 0 {
		t.Fatal("a 5µs deadline rejected no arm — the test is vacuous")
	}
	if got.DeadlineRejects != want.DeadlineRejects || got.DeadlineFallbacks != want.DeadlineFallbacks ||
		got.DeadlineMisses != want.DeadlineMisses || got.DeadlineViolations != want.DeadlineViolations {
		t.Fatalf("merged deadline counters %d/%d/%d/%d, per-engine sums %d/%d/%d/%d",
			got.DeadlineRejects, got.DeadlineFallbacks, got.DeadlineMisses, got.DeadlineViolations,
			want.DeadlineRejects, want.DeadlineFallbacks, want.DeadlineMisses, want.DeadlineViolations)
	}
}

func TestPipelineMinWorkers(t *testing.T) {
	p, err := NewPipeline(Config{
		TargetRatioOverride: 0.5,
		Objective:           SingleTarget(TargetRatio),
		Seed:                4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 1 {
		t.Fatalf("workers = %d, want clamp to 1", p.Workers())
	}
	p.Start(context.Background())
	p.Close()
}

func TestPipelinePropagatesConfigError(t *testing.T) {
	if _, err := NewPipeline(Config{Objective: SingleTarget(TargetRatio), Workers: 2}); err == nil {
		t.Fatal("expected error: no bandwidth or override")
	}
}
