package core

import (
	"math"
	"testing"

	"repro/internal/query"
)

func TestQueryDirectMatchesQuery(t *testing.T) {
	// A heavily-recoded pool exercises both the direct operators (lossy
	// codecs) and the decompress fallback (lossless codecs).
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
		slow, err := e.Query(agg)
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		fast, err := e.QueryDirect(agg)
		if err != nil {
			t.Fatalf("%s direct: %v", agg, err)
		}
		tol := 1e-9 * math.Max(1, math.Abs(slow))
		if math.Abs(slow-fast) > tol {
			t.Fatalf("%s: direct %v vs decompressed %v", agg, fast, slow)
		}
	}
}

func TestQueryDirectEmptyPool(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 1 << 20,
		Objective:    SingleTarget(TargetRatio),
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryDirect(query.Sum); err != query.ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

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
	// Direct queries must move segments to the MRU end like any access:
	// after the query, the pool's victim ordering still cycles (no panic,
	// deterministic victim exists).
	if _, err := e.QueryDirect(query.Max); err != nil {
		t.Fatal(err)
	}
	if _, ok := victim(e); !ok {
		t.Fatal("no victim after direct query")
	}
}
