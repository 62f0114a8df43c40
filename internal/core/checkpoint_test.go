package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	cfg := Config{
		StorageBytes: 40 << 10,
		Objective:    SingleTarget(TargetRatio),
		Seed:         1,
	}
	e, err := NewOfflineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 100, 120) // heavy enough to trigger recoding
	wantSum, err := e.Query(query.Sum)
	if err != nil {
		t.Fatal(err)
	}
	wantSegments := e.Segments()
	wantBytes := e.Storage().Used()

	var buf bytes.Buffer
	if _, err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := ResumeOfflineEngine(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Segments() != wantSegments {
		t.Fatalf("segments %d, want %d", restored.Segments(), wantSegments)
	}
	if restored.Storage().Used() != wantBytes {
		t.Fatalf("storage %d, want %d", restored.Storage().Used(), wantBytes)
	}
	gotSum, err := restored.Query(query.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != wantSum {
		t.Fatalf("sum %v, want %v", gotSum, wantSum)
	}
}

func TestRestoredEngineContinuesIngesting(t *testing.T) {
	cfg := Config{
		StorageBytes: 40 << 10,
		Objective:    SingleTarget(TargetRatio),
		Seed:         2,
	}
	e, err := NewOfflineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 60, 121)
	var buf bytes.Buffer
	if _, err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ResumeOfflineEngine(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// New ids must not collide with restored ones.
	before := map[uint64]bool{}
	restored.EachEntry(func(en *store.Entry) { before[en.ID] = true })
	ingestCBF(t, restored, 60, 122)
	if restored.Segments() != 120 {
		t.Fatalf("segments = %d", restored.Segments())
	}
	fresh := 0
	restored.EachEntry(func(en *store.Entry) {
		if !before[en.ID] {
			fresh++
		}
	})
	if fresh != 60 {
		t.Fatalf("fresh segments = %d (id collision?)", fresh)
	}
	if restored.Storage().Used() > restored.Storage().Capacity() {
		t.Fatal("over budget after resume + ingest")
	}
}

func TestRestoreRejectsShrunkBudget(t *testing.T) {
	e, err := NewOfflineEngine(Config{
		StorageBytes: 1 << 20,
		Objective:    SingleTarget(TargetRatio),
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 50, 123)
	var buf bytes.Buffer
	if _, err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Resume under a budget smaller than the stored data.
	if _, err := ResumeOfflineEngine(Config{
		StorageBytes: 1 << 10,
		Objective:    SingleTarget(TargetRatio),
		Seed:         3,
	}, &buf); !errors.Is(err, sim.ErrBudgetExceeded) {
		t.Fatalf("resume over budget: err = %v, want ErrBudgetExceeded", err)
	}
}

// TestRestoreRejectsUnknownCodec: a dump that names a codec the resuming
// engine's registry lacks (one written under a larger registry) fails the
// resume with an error that names the codec, not the first query.
func TestRestoreRejectsUnknownCodec(t *testing.T) {
	cfg := Config{
		StorageBytes: 1 << 20,
		Objective:    SingleTarget(TargetRatio),
		Seed:         5,
	}
	e, err := NewOfflineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 20, 126)
	var buf bytes.Buffer
	if _, err := store.WriteDump(&buf, e.stored(), func(i int) *store.Entry {
		en := e.entry(e.slot(i), nil)
		if i == 10 {
			en.Enc.Codec = "summary"
		}
		return &en
	}); err != nil {
		t.Fatal(err)
	}
	restored, err := ResumeOfflineEngine(cfg, &buf)
	if err == nil || !strings.Contains(err.Error(), `"summary"`) {
		t.Fatalf("resume of a dump naming codec summary: engine %v, err = %v, want an error naming the codec", restored != nil, err)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := ResumeOfflineEngine(Config{
		StorageBytes: 1 << 20,
		Objective:    SingleTarget(TargetRatio),
	}, bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRestoredPoolRecodesUnderPressure(t *testing.T) {
	// After resume, the LRU order (rebuilt oldest-first) must let the
	// engine keep recoding under pressure. The dump carries no sketches,
	// so the restored entries are recoded on their stored representation
	// alone, side by side with new entries recoded on theirs.
	cfg := Config{
		StorageBytes: 30 << 10,
		Objective:    MLTarget(kmeansModel(t)),
		Seed:         4,
	}
	e, err := NewOfflineEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 80, 124)
	var buf bytes.Buffer
	if _, err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ResumeOfflineEngine(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	levelAtResume := map[uint64]int{}
	restored.EachEntry(func(en *store.Entry) {
		if en.Sketch != nil {
			t.Fatalf("restored entry %d has a sketch: the dump format has no room for one", en.ID)
		}
		levelAtResume[en.ID] = int(en.Level)
	})
	ingestCBF(t, restored, 80, 125)
	if restored.Stats().Recodes == 0 {
		t.Fatal("no recodes after resume under pressure")
	}
	if restored.Segments() != 160 {
		t.Fatalf("segments = %d", restored.Segments())
	}
	if used, capacity := restored.Storage().Used(), restored.Storage().Capacity(); used > capacity {
		t.Fatalf("%d bytes stored after resume + ingest, budget %d", used, capacity)
	}
	var recodedOld, recodedNew int
	restored.EachEntry(func(en *store.Entry) {
		level, old := levelAtResume[en.ID]
		switch {
		case old && en.Sketch != nil:
			t.Errorf("restored entry %d grew a sketch", en.ID)
		case !old && en.Sketch == nil:
			t.Errorf("entry %d, ingested after the resume, has no sketch", en.ID)
		case old && int(en.Level) > level:
			recodedOld++
		case !old && en.Level > 0:
			recodedNew++
		}
		// Through the registry: QuerySegment would record an access.
		if _, err := restored.reg.Decompress(en.Enc); err != nil {
			t.Errorf("entry %d no longer decodes: %v", en.ID, err)
		}
	})
	if recodedOld == 0 || recodedNew == 0 {
		t.Fatalf("recoded %d restored and %d new entries, want some of both", recodedOld, recodedNew)
	}
}

// TestRestoreReplaysVirtualTime: the dump keeps no timestamps, so the
// resumed engine replays its clock over the restored segments in ID order.
// Each restored segment spans what it spanned before, and a time-range
// query reads what it read before; a drained segment's time is not in the
// dump, so after a drain the restored spans start where the first segment
// left in the dump begins. Without the replay every restored segment
// spanned [0, 0) and the clock read 0, so QueryRange skipped them all.
func TestRestoreReplaysVirtualTime(t *testing.T) {
	cfg := Config{
		StorageBytes: 4 << 20,
		IngestRate:   128,
		Objective:    SingleTarget(TargetRatio),
		Seed:         1,
	}
	e := rangeEngine(t, 10) // segment s spans [s, s+1) seconds and holds s
	resume := func() *OfflineEngine {
		t.Helper()
		var buf bytes.Buffer
		if _, err := e.SaveTo(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := ResumeOfflineEngine(cfg, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return restored
	}

	restored := resume()
	if got, want := restored.Clock().Seconds(), e.Clock().Seconds(); got != want {
		t.Errorf("restored clock reads %v s, want %v", got, want)
	}
	if got, err := restored.QueryRange(query.Sum, 0, 1e9); err != nil || got != 45*128 {
		t.Errorf("QueryRange(Sum) over everything restored = %v, %v; want %v", got, err, 45*128)
	}
	if got, err := restored.QueryRange(query.Max, 3, 6); err != nil || got != 5 {
		t.Errorf("QueryRange(Max, 3, 6) restored = %v, %v; want 5", got, err)
	}

	// Drain segments 0-2: segment 3 now spans [0, 1) after the resume.
	var window int64
	for i := 0; i < 3; i++ {
		window += int64(e.nth(i).size)
	}
	if rep := drain(t, e, sim.Bandwidth(window), 1); rep.SegmentsSent != 3 {
		t.Fatalf("drained %d segments, want 3", rep.SegmentsSent)
	}
	restored = resume()
	if got := restored.Clock().Seconds(); got != 7 {
		t.Errorf("clock after resuming 7 of 10 segments reads %v s, want 7", got)
	}
	if first, ok := peek(restored, 3); !ok || first.StartSec != 0 || first.EndSec != 1 {
		t.Errorf("restored segment 3 (stored %v) spans %+v, want [0, 1)", ok, first)
	}
	if got, err := restored.QueryRange(query.Sum, 0, 1e9); err != nil || got != (45-3)*128 {
		t.Errorf("QueryRange(Sum) after a drain = %v, %v; want %v", got, err, (45-3)*128)
	}
}
