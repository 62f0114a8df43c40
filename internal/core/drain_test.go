package core

import (
	"errors"
	"testing"

	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

func drainEngine(t *testing.T, segments int) *OfflineEngine {
	t.Helper()
	e, err := NewOfflineEngine(Config{
		StorageBytes: 2 << 20,
		Objective:    AggTarget(query.Sum), // an accuracy term, so entries carry a sketch
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, segments, 60)
	return e
}

// drain is Drain with no link to refuse a segment, which cannot fail.
func drain(t *testing.T, e *OfflineEngine, bw sim.Bandwidth, seconds float64) DrainReport {
	t.Helper()
	rep, err := e.Drain(bw, seconds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// capture returns a ship func for Drain that appends each segment it is
// handed to *sent, and refuses with failErr once *sent holds failAt of
// them (never when failAt < 0).
func capture(sent *[]store.Entry, failAt int, failErr error) func(*store.Entry) error {
	return func(en *store.Entry) error {
		if failAt >= 0 && len(*sent) >= failAt {
			return failErr
		}
		*sent = append(*sent, *en)
		return nil
	}
}

func TestDrainSendsOldestFirstAndFreesSpace(t *testing.T) {
	e := drainEngine(t, 50)
	before := e.Storage().Used()
	rep := drain(t, e, sim.Net4G, 0.001) // 12.5 KB window
	if rep.SegmentsSent == 0 {
		t.Fatal("nothing sent")
	}
	if rep.SegmentsSent+rep.SegmentsLeft != 50 {
		t.Fatalf("sent %d + left %d != 50", rep.SegmentsSent, rep.SegmentsLeft)
	}
	// Oldest-first: the sent ids must be 0..k-1.
	for i, en := range rep.Sent {
		if en.ID != uint64(i) {
			t.Fatalf("sent[%d].ID = %d, want %d (oldest first)", i, en.ID, i)
		}
		if en.Sketch != nil {
			t.Fatal("the engine's sketch leaked into transmission")
		}
	}
	if left, ok := peek(e, uint64(rep.SegmentsSent)); !ok || left.Sketch == nil {
		t.Fatal("a segment still in the pool lost its sketch (or never had one: the check above is vacuous)")
	}
	if after := e.Storage().Used(); after != before-rep.BytesSent {
		t.Fatalf("storage not freed: before %d, after %d, sent %d", before, after, rep.BytesSent)
	}
	if int64(e.Segments()) != int64(rep.SegmentsLeft) {
		t.Fatal("pool count mismatch")
	}
}

func TestDrainRespectsByteBudget(t *testing.T) {
	e := drainEngine(t, 30)
	rep := drain(t, e, sim.Bandwidth(1000), 1) // 1000-byte window
	if rep.BytesSent > 1000 {
		t.Fatalf("sent %d bytes over a 1000-byte window", rep.BytesSent)
	}
}

func TestDrainEverything(t *testing.T) {
	e := drainEngine(t, 20)
	rep := drain(t, e, sim.Net5G, 10) // effectively unlimited
	if rep.SegmentsLeft != 0 || e.Segments() != 0 {
		t.Fatalf("drain left %d segments", rep.SegmentsLeft)
	}
	if e.Storage().Used() != 0 {
		t.Fatalf("storage not fully freed: %d", e.Storage().Used())
	}
	// The receiving side can decompress everything it got.
	for _, en := range rep.Sent {
		vals, err := e.reg.Decompress(en.Enc)
		if err != nil {
			t.Fatalf("segment %d: %v", en.ID, err)
		}
		if len(vals) != en.Enc.N {
			t.Fatalf("segment %d: %d values", en.ID, len(vals))
		}
	}
}

func TestDrainThenContinueIngesting(t *testing.T) {
	// The point of offline mode: hold data, offload on reconnection, keep
	// ingesting after.
	e, err := NewOfflineEngine(Config{
		StorageBytes: 40 << 10,
		Objective:    SingleTarget(TargetRatio),
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, 80, 61)
	recodesBefore := e.Stats().Recodes
	drain(t, e, sim.Net5G, 10)
	// Freed space: further ingestion should proceed without recoding.
	ingestCBF(t, e, 40, 62)
	if e.Stats().Recodes != recodesBefore {
		t.Fatalf("post-drain ingestion still recoded (%d -> %d)", recodesBefore, e.Stats().Recodes)
	}
}

func TestRetargetChangesBehaviour(t *testing.T) {
	e, err := NewOnlineEngine(Config{
		IngestRate: 4e6,
		Bandwidth:  sim.Net4G,
		Objective:  AggTarget(query.Sum),
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 63})
	for i := 0; i < 30; i++ {
		series, label := stream.Next()
		if _, _, err := e.Process(series, label); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().LossySegments != 0 {
		t.Fatal("4G should be lossless on CBF")
	}
	// The link degrades to 3G mid-stream: the engine must retarget and
	// go lossy.
	e.Retarget(sim.Net3G)
	if got := e.TargetRatio(); got > 0.05 {
		t.Fatalf("retargeted ratio = %v", got)
	}
	for i := 0; i < 30; i++ {
		series, label := stream.Next()
		if _, _, err := e.Process(series, label); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().LossySegments == 0 {
		t.Fatal("3G should force lossy compression")
	}
	// Link recovers: lossless returns.
	e.Retarget(sim.Net5G)
	lossyAt60 := e.Stats().LossySegments
	for i := 0; i < 30; i++ {
		series, label := stream.Next()
		if _, _, err := e.Process(series, label); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().LossySegments != lossyAt60 {
		t.Fatal("5G recovery should restore lossless selection")
	}
}

// TestRetargetIgnoresDeadLink: a link reporting no capacity has no ratio
// to compress to. Retarget keeps the previous target, so segments still
// leave at it instead of every Process failing with ErrNoFeasibleCodec.
func TestRetargetIgnoresDeadLink(t *testing.T) {
	e, err := NewOnlineEngine(Config{
		IngestRate: 4e6,
		Bandwidth:  sim.Net3G,
		Objective:  AggTarget(query.Sum),
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := e.TargetRatio()
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 64})
	for _, bw := range []sim.Bandwidth{0, -5} {
		e.Retarget(bw)
		if got := e.TargetRatio(); got != want {
			t.Fatalf("Retarget(%v): target ratio = %v, want %v kept", bw, got, want)
		}
		series, label := stream.Next()
		res, _, err := e.Process(series, label)
		if err != nil {
			t.Fatalf("Process after Retarget(%v): %v", bw, err)
		}
		if res.Ratio > want+ratioSlack {
			t.Fatalf("Process after Retarget(%v): ratio %v over the kept target %v", bw, res.Ratio, want)
		}
	}
}

func TestDrainToShipsFrames(t *testing.T) {
	e := drainEngine(t, 20)
	var shipped []store.Entry
	rep, err := e.Drain(sim.Net5G, 10, capture(&shipped, -1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentsSent != 20 || len(shipped) != 20 {
		t.Fatalf("sent %d, captured %d", rep.SegmentsSent, len(shipped))
	}
	for i, f := range shipped {
		if f.ID != uint64(i) {
			t.Fatalf("frame %d has id %d", i, f.ID)
		}
		if f.Enc.Codec == "" || f.Enc.N == 0 {
			t.Fatalf("frame %d missing metadata", i)
		}
	}
	if e.Segments() != 0 {
		t.Fatalf("backlog = %d after full drain", e.Segments())
	}
}

func TestDrainToRestoresOnSendFailure(t *testing.T) {
	e := drainEngine(t, 20)
	before := e.Segments()
	wantErr := errors.New("link dropped")
	var shipped []store.Entry
	rep, err := e.Drain(sim.Net5G, 10, capture(&shipped, 5, wantErr))
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if rep.SegmentsSent != 5 {
		t.Fatalf("sent = %d, want 5", rep.SegmentsSent)
	}
	// Nothing lost: shipped + restored == original.
	if rep.SegmentsSent+e.Segments() != before {
		t.Fatalf("segments lost: sent %d + stored %d != %d", rep.SegmentsSent, e.Segments(), before)
	}
	// Storage accounting matches the stored payloads.
	if e.Storage().Used() != storedBytes(e) {
		t.Fatalf("storage %d != stored bytes %d", e.Storage().Used(), storedBytes(e))
	}
	// The restored segments remain decodable.
	e.EachEntry(func(en *store.Entry) {
		if _, err := e.reg.Decompress(en.Enc); err != nil {
			t.Fatalf("restored segment %d broken: %v", en.ID, err)
		}
	})
}

// TestDrainToFailureKeepsSketchAndLoss: a refused segment stays as it was
// stored. Until PR 22 a drain through a sender drained first and re-stored the stripped copies
// from report.Sent on failure, so the device reported no accuracy loss
// (0.30 → 0 here) and every later recode of those segments scored against a
// lossy reference.
func TestDrainToFailureKeepsSketchAndLoss(t *testing.T) {
	const segments = 60
	e, err := NewOfflineEngine(Config{
		StorageBytes: segments * 140, // tight: most segments get recoded
		Objective:    AggTarget(query.Max),
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestCBF(t, e, segments, 60)
	sketches := func() (n int) {
		e.EachEntry(func(en *store.Entry) {
			if en.Sketch != nil {
				n++
			}
		})
		return n
	}
	wantLoss, wantSketches := e.Snapshot().MeanAccuracyLoss, sketches()
	if wantLoss == 0 || wantSketches != segments {
		t.Fatalf("loss %g and %d sketches before the drain: nothing to lose, the test is vacuous", wantLoss, wantSketches)
	}
	wantErr := errors.New("link dropped")
	var shipped []store.Entry
	if _, err := e.Drain(sim.Net5G, 10, capture(&shipped, 0, wantErr)); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if got := e.Snapshot().MeanAccuracyLoss; got != wantLoss {
		t.Errorf("mean accuracy loss %g after a failed Drain, %g before", got, wantLoss)
	}
	if got := sketches(); got != wantSketches {
		t.Errorf("%d of %d sketches left after a failed Drain", got, wantSketches)
	}
}
