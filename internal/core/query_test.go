package core

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/query"
	"repro/internal/store"
)

// decodedReference is query.Apply over every stored segment's decoded
// values, in ID order: what Query answers by definition.
func decodedReference(t *testing.T, e *OfflineEngine, agg query.Agg) float64 {
	t.Helper()
	var all []float64
	e.EachEntry(func(en *store.Entry) {
		v, err := e.reg.Decompress(en.Enc)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, v...)
	})
	want, err := query.Apply(agg, all)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestQueryMatchesDecodedReference: Query answers lossy segments in place
// and folds the rest point by point, so it must equal query.Apply over the
// decoded store within rounding on a heavily recoded store, and exactly
// for Sum on a lossless one.
func TestQueryMatchesDecodedReference(t *testing.T) {
	// A heavily-recoded store exercises both the direct operators (lossy
	// codecs) and the decode fallback (lossless codecs).
	e, err := NewOfflineEngine(Config{
		StorageBytes: 30 << 10,
		Objective:    AggTarget(query.Sum),
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 120, 95)
	if e.Stats().Recodes == 0 {
		t.Fatal("setup: expected recodes")
	}
	for _, agg := range []query.Agg{query.Sum, query.Avg, query.Min, query.Max} {
		got, err := e.Query(agg)
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		want := decodedReference(t, e, agg)
		if tol := 1e-9 * math.Max(1, math.Abs(want)); math.Abs(got-want) > tol {
			t.Fatalf("%s: Query %v vs decoded %v", agg, got, want)
		}
	}

	lossless, err := NewOfflineEngine(Config{
		StorageBytes: 1 << 20,
		Objective:    AggTarget(query.Sum),
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, lossless, 120, 95)
	summable := 0 // segments whose codec could have summed them in place
	lossless.EachEntry(func(en *store.Entry) {
		if !en.Lossless {
			t.Fatalf("setup: segment %d is lossy", en.ID)
		}
		if c, _ := lossless.reg.Lookup(en.Enc.Codec); c != nil {
			if _, ok := c.(compress.DirectSummer); ok {
				summable++
			}
		}
	})
	t.Logf("%d of 120 lossless segments have an in-place sum", summable)
	got, err := lossless.Query(query.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if want := decodedReference(t, lossless, query.Sum); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("lossless store: Query(Sum) %v, decoded sum %v", got, want)
	}
}

// TestQueryDirectEmptyPool: with nothing stored, neither an in-place
// answer nor a decode folds a point, and every aggregate is ErrEmpty.
func TestQueryDirectEmptyPool(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 1 << 20,
		Objective:    SingleTarget(TargetRatio),
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []query.Agg{query.Sum, query.Avg, query.Min, query.Max} {
		if _, err := e.Query(agg); err != query.ErrEmpty {
			t.Fatalf("%s: want ErrEmpty, got %v", agg, err)
		}
	}
}

// TestQueryDirectRecordsAccesses: Query records an access to every segment
// it reads, whether it answers it in place or decodes it.
func TestQueryDirectRecordsAccesses(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 1 << 20,
		Objective:    SingleTarget(TargetRatio),
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 10, 96)
	// QuerySegment makes segment 0 the most recently used; a Query that
	// records its accesses, in ID order, makes it the least again.
	if _, err := e.QuerySegment(0); err != nil {
		t.Fatal(err)
	}
	if v, _ := victim(e); v.ID != 1 {
		t.Fatalf("setup: victim %d after reading segment 0, want 1", v.ID)
	}
	if _, err := e.Query(query.Max); err != nil {
		t.Fatal(err)
	}
	if v, ok := victim(e); !ok || v.ID != 0 {
		t.Fatalf("victim after Query is %+v, want segment 0", v)
	}
}
