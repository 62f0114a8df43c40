package core

import (
	"errors"
	"testing"

	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
)

type captureSender struct {
	frames  []transport.Frame
	failAt  int // fail when len(frames) reaches failAt (-1 = never)
	failErr error
}

func (c *captureSender) Send(f transport.Frame) error {
	if c.failAt >= 0 && len(c.frames) >= c.failAt {
		return c.failErr
	}
	c.frames = append(c.frames, f)
	return nil
}

func TestDrainToShipsFrames(t *testing.T) {
	e := drainEngine(t, 20)
	sender := &captureSender{failAt: -1}
	rep, err := e.DrainTo(sender, sim.Net5G, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentsSent != 20 || len(sender.frames) != 20 {
		t.Fatalf("sent %d, captured %d", rep.SegmentsSent, len(sender.frames))
	}
	for i, f := range sender.frames {
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
	sender := &captureSender{failAt: 5, failErr: wantErr}
	rep, err := e.DrainTo(sender, sim.Net5G, 10)
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
// stored. Until PR 22 DrainTo drained first and re-stored the stripped copies
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
	if _, err := e.DrainTo(&captureSender{failAt: 0, failErr: wantErr}, sim.Net5G, 10); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if got := e.Snapshot().MeanAccuracyLoss; got != wantLoss {
		t.Errorf("mean accuracy loss %g after a failed DrainTo, %g before", got, wantLoss)
	}
	if got := sketches(); got != wantSketches {
		t.Errorf("%d of %d sketches left after a failed DrainTo", got, wantSketches)
	}
}
