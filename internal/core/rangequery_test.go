package core

import (
	"math"
	"testing"

	"repro/internal/query"
)

// rangeEngine ingests segments whose values encode their index, at a rate
// of one segment (128 points) per virtual second.
func rangeEngine(t *testing.T, segments int) *OfflineEngine {
	t.Helper()
	e, err := NewOfflineEngine(Config{
		StorageBytes: 4 << 20,
		IngestRate:   128,
		Objective:    SingleTarget(TargetRatio),
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < segments; s++ {
		values := make([]float64, 128)
		for i := range values {
			values[i] = float64(s) // constant per segment: easy to assert
		}
		if err := e.Ingest(values, 0); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestQueryRangeSelectsWindow(t *testing.T) {
	e := rangeEngine(t, 10) // segment s spans [s, s+1) seconds
	// Window [3, 6): segments 3, 4, 5.
	got, err := e.QueryRange(query.Max, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("max over [3,6) = %v, want 5", got)
	}
	got, err = e.QueryRange(query.Min, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("min over [3,6) = %v, want 3", got)
	}
	// Avg over a single segment.
	got, err = e.QueryRange(query.Avg, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("avg over [7,8) = %v, want 7", got)
	}
}

func TestQueryRangePartialSegment(t *testing.T) {
	e := rangeEngine(t, 4)
	// Half of segment 2: still only value 2 in the window.
	got, err := e.QueryRange(query.Sum, 2.0, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2*64) > 1e-9 {
		t.Fatalf("sum over half a segment = %v, want %v", got, 2*64)
	}
}

func TestQueryRangeEmptyWindow(t *testing.T) {
	e := rangeEngine(t, 3)
	if _, err := e.QueryRange(query.Sum, 50, 60); err != query.ErrEmpty {
		t.Fatalf("out-of-range window: want ErrEmpty, got %v", err)
	}
	if _, err := e.QueryRange(query.Sum, 2, 2); err != query.ErrEmpty {
		t.Fatalf("degenerate window: want ErrEmpty, got %v", err)
	}
}

func TestQueryRangeProtectsSegments(t *testing.T) {
	e := rangeEngine(t, 5)
	// Range queries are accesses: the queried segment must leave the
	// front of the LRU order.
	if _, err := e.QueryRange(query.Max, 0, 1); err != nil {
		t.Fatal(err)
	}
	victim, ok := victim(e)
	if !ok {
		t.Fatal("no victim")
	}
	if victim.ID == 0 {
		t.Fatal("queried segment still the LRU victim")
	}
}

func TestEntryTimestampsMonotone(t *testing.T) {
	e := rangeEngine(t, 6)
	var prevEnd float64
	for id := uint64(0); id < 6; id++ {
		en, ok := peek(e, id)
		if !ok {
			t.Fatalf("segment %d missing", id)
		}
		if en.StartSec >= en.EndSec {
			t.Fatalf("segment %d: span [%v,%v)", id, en.StartSec, en.EndSec)
		}
		if math.Abs(en.StartSec-prevEnd) > 1e-9 {
			t.Fatalf("segment %d: gap %v -> %v", id, prevEnd, en.StartSec)
		}
		prevEnd = en.EndSec
	}
}
