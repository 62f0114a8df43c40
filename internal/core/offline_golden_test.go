package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/store"
)

// offlineTraceDigest folds everything a seeded offline run decided into one
// FNV-1a value: per entry, in id order, (id, codec, level, size, payload,
// cached accuracy-loss bits), then the engine's OfflineStats.
func offlineTraceDigest(e *OfflineEngine) string {
	h := fnv.New64a()
	var entries []*store.Entry
	e.EachEntry(func(en *store.Entry) { entries = append(entries, en) })
	sort.Slice(entries, func(a, b int) bool { return entries[a].ID < entries[b].ID })
	for _, en := range entries {
		fmt.Fprintf(h, "%d %s %d %d %x %x\n", en.ID, en.Enc.Codec, en.Level, en.Enc.Size(), en.Enc.Data, math.Float64bits(en.AccLoss))
	}
	st := e.Stats()
	fmt.Fprintf(h, "%d %d %d %d %d\n", st.SegmentsIngested, st.Recodes, st.VirtualRecodes, st.Fallbacks, st.RecodeSkips)
	for _, use := range []map[string]int{st.LosslessUse, st.LossyUse} {
		names := make([]string, 0, len(use))
		for name := range use {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "%s=%d ", name, use[name])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestOfflineSeededTraceGolden pins the offline engine's seeded decisions
// across refactors of how it scores a recode: every stored byte, level and
// cached accuracy loss of a 4 096-segment epoch at the offline_recode
// benchmark's 140 B/segment, for an ML, an aggregation and a weighted
// objective. The digests were generated at e3caea0, where the engine still
// scored against a retained raw copy of each segment.
func TestOfflineSeededTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("six 4 096-segment epochs")
	}
	const epoch = 4096
	model := kmeansModel(t)
	segs := cbfSegments(t, epoch, 17)
	for _, tc := range []struct {
		name      string
		objective Objective
		want      [2]string // engine seeds 5 and 6
	}{
		{"ml", MLTarget(model), [2]string{"0d9a4003ce8f0362", "1b2b7a19dbee5da5"}},
		{"agg-max", AggTarget(query.Max), [2]string{"6dcc80dbf2d99d2b", "29bf70cd4004eeaa"}},
		{"ml+ratio", Weighted(
			Term{Kind: TargetMLAccuracy, Weight: 0.5, Model: model},
			Term{Kind: TargetRatio, Weight: 0.5},
		), [2]string{"5ed81de97ad5cd17", "7a7a712cb02918ed"}},
	} {
		for s, want := range tc.want {
			seed := int64(5 + s)
			e, err := NewOfflineEngine(Config{
				StorageBytes: epoch * 140,
				Objective:    tc.objective,
				CodecCost:    DefaultCodecCost,
				Seed:         seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range segs {
				if err := e.Ingest(s.Values, s.Label); err != nil {
					t.Fatalf("%s seed %d: segment %d: %v", tc.name, seed, i, err)
				}
			}
			if got := offlineTraceDigest(e); got != want {
				t.Errorf("%s seed %d: digest %s, want %s (%+v)", tc.name, seed, got, want, e.Stats())
			}
		}
	}
}
