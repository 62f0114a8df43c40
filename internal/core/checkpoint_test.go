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
		en := *e.row(i)
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
