package core

import (
	"testing"

	"repro/internal/query"
	"repro/internal/store"
)

func TestQueryFilteredAggregatesQualifiedValues(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 2 << 20,
		Objective:    SingleTarget(TargetRatio),
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 20, 70)
	all, err := e.Query(query.Max)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := e.QueryFiltered(query.Max, func(v float64) bool { return v < all })
	if err != nil {
		t.Fatal(err)
	}
	if filtered >= all {
		t.Fatalf("filtered max %v should be below unfiltered max %v", filtered, all)
	}
	// A predicate nothing satisfies yields ErrEmpty.
	if _, err := e.QueryFiltered(query.Sum, func(float64) bool { return false }); err != query.ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestQueryFilteredDrivesInformativenessPolicy(t *testing.T) {
	// CBF class shapes: label 0/1/2 segments have an active region ≈6; a
	// predicate on high values qualifies many entries in active segments
	// and few in flat ones, so under the informativeness policy the
	// less-qualified segments must be recoded first.
	e, err := NewOfflineEngine(Config{
		StorageBytes: 2 << 20,
		Objective:    SingleTarget(TargetRatio),
		Policy:       store.NewInformativeness(),
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 30, 71)
	if _, err := e.QueryFiltered(query.Avg, func(v float64) bool { return v > 3 }); err != nil {
		t.Fatal(err)
	}
	// Find each segment's qualified ratio directly.
	type segInfo struct {
		id    uint64
		ratio float64
	}
	var infos []segInfo
	e.EachEntry(func(en *store.Entry) {
		vals, err := e.reg.Decompress(en.Enc)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, v := range vals {
			if v > 3 {
				n++
			}
		}
		infos = append(infos, segInfo{en.ID, float64(n) / float64(len(vals))})
	})
	least := infos[0]
	for _, in := range infos {
		if in.ratio < least.ratio {
			least = in
		}
	}
	victim, ok := victim(e)
	if !ok {
		t.Fatal("no victim")
	}
	if victim.ID != least.id {
		t.Fatalf("victim = %d (ratio unknown), want least-qualified segment %d (ratio %.3f)",
			victim.ID, least.id, least.ratio)
	}
}
