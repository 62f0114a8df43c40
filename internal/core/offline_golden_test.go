package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/compress"
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

// TestEachEntryHandsOutCopies: an Entry from EachEntry is the caller's, so
// changing any of its fields, or its Sketch, leaves the engine as it was:
// the same trace digest, and the same sketches on the next walk. When
// EachEntry handed out the engine's own rows, a caller that kept or
// changed one changed the stored segment.
func TestEachEntryHandsOutCopies(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 600 * 140,
		Objective:    MLTarget(kmeansModel(t)),
		CodecCost:    DefaultCodecCost,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 600, 17)
	want := offlineTraceDigest(e)
	sketches := func() (out []uint64) {
		e.EachEntry(func(en *store.Entry) {
			for _, v := range en.Sketch {
				out = append(out, math.Float64bits(v))
			}
		})
		return out
	}
	wantSketches := sketches()
	if len(wantSketches) == 0 || e.Stats().Recodes == 0 {
		t.Fatalf("%d sketch values and %d recodes: nothing to protect, the test is vacuous", len(wantSketches), e.Stats().Recodes)
	}
	e.EachEntry(func(en *store.Entry) {
		en.ID += 1 << 20
		en.Enc = compress.Encoded{Codec: "tampered", N: 1}
		en.Lossless, en.Level, en.Label = !en.Lossless, en.Level+7, en.Label+1
		en.StartSec, en.EndSec, en.AccLoss = -1, -1, math.NaN()
		for i := range en.Sketch {
			en.Sketch[i] = math.Inf(1)
		}
		en.Sketch = append(en.Sketch, 1)
	})
	if got := offlineTraceDigest(e); got != want {
		t.Errorf("digest %s after changing EachEntry's entries, want %s", got, want)
	}
	if got := sketches(); !slices.Equal(got, wantSketches) {
		t.Error("changing EachEntry's sketches changed the engine's")
	}
}
