package obs

import (
	"testing"
)

// TestSpanRingRecord pins stage recording on the one ring: canonical
// stage-name stamping (Kind defaults to the stage name, an explicit Kind
// stays), 1-based Seq shared with plain events, and the stage histogram
// feed when one is attached.
func TestSpanRingRecord(t *testing.T) {
	r := NewRing(8)
	h := NewRegistry().Histogram("span.stage_seconds.trial", LatencyBuckets)
	r.hist[StageTrial] = h
	r.RecordStage(StageIngest, Event{Device: 1, Trace: 7, Arm: -1})
	r.Record(Event{Source: "bandit", Kind: "select", Arm: 2})
	r.RecordStage(StageTrial, Event{Device: 1, Trace: 7, Arm: 2, Codec: "paa", Dur: 0.001})
	r.RecordStage(StageEncode, Event{Kind: "decision", Device: 1, Trace: 7, Arm: 2})
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	if evs[0].Stage != "ingest" || evs[0].Kind != "ingest" || evs[0].Seq != 1 {
		t.Fatalf("first record = %+v, want stamped ingest/Seq 1", evs[0])
	}
	if evs[1].Stage != "" || evs[1].Seq != 2 {
		t.Fatalf("plain event = %+v, want no stage and Seq 2", evs[1])
	}
	if evs[2].Stage != "trial" || evs[2].Seq != 3 || evs[2].Codec != "paa" {
		t.Fatalf("trial record = %+v", evs[2])
	}
	if evs[3].Stage != "encode" || evs[3].Kind != "decision" {
		t.Fatalf("decision record = %+v, want Kind decision carrying stage encode", evs[3])
	}
	if r.Total() != 4 || r.Dropped() != 0 || r.Len() != 4 {
		t.Fatalf("totals: total %d dropped %d len %d", r.Total(), r.Dropped(), r.Len())
	}
	if n := h.snapshot().Count; n != 1 {
		t.Fatalf("trial histogram count = %d, want the Dur observed", n)
	}
	// Out-of-range stages are dropped, not stamped.
	r.RecordStage(numStages, Event{Trace: 9})
	if r.Total() != 4 {
		t.Fatal("out-of-range stage was recorded")
	}
}

// TestSpanRingWraparound pins the bounded-buffer semantics: old records
// evict oldest-first, the stage histograms keep counting across the
// eviction, and the groups assembled from the surviving window stay
// causally consistent — a trace either kept its collector.deliver join
// (still Complete) or lost stages wholesale, but Groups never invents
// identities.
func TestSpanRingWraparound(t *testing.T) {
	o := New(8)
	r := o.Ring()
	// 6 traces × (wire.send + collector.deliver) = 12 records through a
	// capacity-8 ring: the first 4 records (traces 1-2) are evicted.
	for trace := uint64(1); trace <= 6; trace++ {
		r.RecordStage(StageWireSend, Event{Device: 1, Trace: trace})
		r.RecordStage(StageCollectorDeliver, Event{Device: 1, Trace: trace})
	}
	if r.Total() != 12 || r.Dropped() != 4 || r.Len() != 8 {
		t.Fatalf("total %d dropped %d len %d, want 12/4/8", r.Total(), r.Dropped(), r.Len())
	}
	// The stage histogram survives eviction: all 6 delivers still counted.
	if got := o.Registry().Snapshot().Histograms["span.stage_seconds.collector.deliver"].Count; got != 6 {
		t.Fatalf("deliver count = %d, want 6 (cumulative across wraparound)", got)
	}
	groups := r.Groups()
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want the 4 surviving traces", len(groups))
	}
	for _, g := range groups {
		if g.Trace < 3 || g.Trace > 6 {
			t.Fatalf("evicted trace %d resurfaced in groups", g.Trace)
		}
		if len(g.Stages) != 2 || !g.Complete {
			t.Fatalf("surviving trace %d lost its causal pair: %+v", g.Trace, g)
		}
	}
	if got := r.ClosedSpans(); got != 4 {
		t.Fatalf("ClosedSpans = %d, want 4", got)
	}
	// Seq keeps ascending across the wraparound.
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("Seq gap after wraparound: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestSpanGroupsCompleteness pins the Complete predicate: device-side
// stages alone are open, a deliver alone is open, only the join closes,
// and zero-trace records (plain events, untraced wire traffic) never form
// groups.
func TestSpanGroupsCompleteness(t *testing.T) {
	r := NewRing(16)
	r.RecordStage(StageIngest, Event{Device: 1, Trace: 1})           // device-only
	r.RecordStage(StageCollectorDeliver, Event{Device: 1, Trace: 2}) // deliver-only
	r.RecordStage(StageEncode, Event{Device: 1, Trace: 3})           // joined
	r.RecordStage(StageCollectorDeliver, Event{Device: 1, Trace: 3})
	r.Record(Event{Source: "transport.uplink", Kind: "send", Device: 1}) // untraced
	groups := r.Groups()
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3 (zero-trace records skipped)", len(groups))
	}
	complete := map[uint64]bool{}
	for _, g := range groups {
		complete[g.Trace] = g.Complete
	}
	if complete[1] || complete[2] || !complete[3] {
		t.Fatalf("completeness = %v, want only trace 3 closed", complete)
	}
	// Same trace on another device is a distinct span.
	r.RecordStage(StageEncode, Event{Device: 2, Trace: 3})
	if got := len(r.Groups()); got != 4 {
		t.Fatalf("groups after second device = %d, want 4 (identity is (device, trace))", got)
	}
}

// TestSpanRingNilSafety: a nil ring ignores stage records and returns
// empty groups, so emitters hold the pointer unconditionally.
func TestSpanRingNilSafety(t *testing.T) {
	var r *Ring
	r.RecordStage(StageIngest, Event{Trace: 1})
	if r.Total() != 0 || r.Dropped() != 0 || r.Len() != 0 {
		t.Fatal("nil ring reported totals")
	}
	if r.Events() != nil || r.Groups() != nil || r.ClosedSpans() != 0 {
		t.Fatal("nil ring returned non-empty snapshots")
	}
}

// TestStageNames pins the catalogue and its causal order.
func TestStageNames(t *testing.T) {
	names := stageNames[:]
	want := []string{"ingest", "features", "trial", "select", "encode",
		"spool.enqueue", "wire.send", "wire.ack", "collector.deliver"}
	if len(names) != len(want) {
		t.Fatalf("stageNames = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("stage %d = %q, want %q", i, names[i], n)
		}
	}
}

// TestTraceOfSegment pins the canonical mapping: never zero.
func TestTraceOfSegment(t *testing.T) {
	if TraceOfSegment(0) != 1 || TraceOfSegment(41) != 42 {
		t.Fatal("TraceOfSegment is not segment ID + 1")
	}
}

// TestAllocsSpanRecord pins the hot-path budget: recording a traced
// stage into a warm ring allocates nothing, even with the stage histogram
// attached — the record is copied into the preallocated buffer under the
// ring lock.
func TestAllocsSpanRecord(t *testing.T) {
	r := New(256).Ring()
	rec := Event{Source: "core.online", ID: 10, Device: 3, Trace: 11, Arm: 1, Codec: "paa", VT: 0.25, Dur: 0.01}
	for i := 0; i < 512; i++ {
		r.RecordStage(StageTrial, rec)
	}
	if got := testing.AllocsPerRun(1000, func() {
		r.RecordStage(StageTrial, rec)
	}); got != 0 {
		t.Errorf("Ring.RecordStage allocates %v/op, want 0", got)
	}
}

// TestFleetBoard pins the scoreboard: get-or-create rows, atomic updates
// from multiple layers, sorted snapshots, the watermark-lag clamp, the
// NoteSpooled high-water CAS, and nil safety end to end.
func TestFleetBoard(t *testing.T) {
	b := NewFleetBoard()
	d2 := b.Device(2)
	d1 := b.Device(1)
	if b.Device(1) != d1 {
		t.Fatal("Device is not get-or-create")
	}
	if n := len(b.Snapshot()); n != 2 {
		t.Fatalf("%d rows, want 2", n)
	}
	d1.SetSpoolDepth(3)
	d1.NoteSpooled(4) // spooled watermark = 5
	d1.NoteSpooled(2) // lower ID must not regress it
	d1.SetSpoolAcked(2)
	d1.SetWatermark(2)
	d1.NoteDelivery()
	d1.NoteDelivery()
	d1.NoteRedelivery()
	d1.NoteKick()
	d1.NoteEviction()
	d1.NoteAckBatch(16)
	d1.NoteDeadlineReject(3)
	d1.NoteDeadlineReject(0) // no-op
	d1.NoteDeadlineFallback()
	snap := b.Snapshot()
	if len(snap) != 2 || snap[0].Device != 1 || snap[1].Device != 2 {
		t.Fatalf("snapshot not sorted by device: %+v", snap)
	}
	row := snap[0]
	if row.SpoolDepth != 3 || row.SpoolAcked != 2 || row.Watermark != 2 {
		t.Fatalf("row = %+v", row)
	}
	if row.WatermarkLag != 3 { // spooled 5 - watermark 2
		t.Fatalf("WatermarkLag = %d, want 3", row.WatermarkLag)
	}
	if row.Delivered != 2 || row.Redelivered != 1 || row.SessionKicks != 1 ||
		row.Evictions != 1 || row.LastAckBatch != 16 {
		t.Fatalf("row = %+v", row)
	}
	if row.DeadlineRejects != 3 || row.DeadlineFallbacks != 1 {
		t.Fatalf("deadline cells = %+v", row)
	}
	if row.StalenessSeconds < 0 {
		t.Fatalf("StalenessSeconds = %v after a delivery, want >= 0", row.StalenessSeconds)
	}
	// Watermark ahead of spooled clamps lag to 0 (device restarted its
	// counter, or the collector carried an old watermark).
	never := snap[1]
	if never.StalenessSeconds != -1 {
		t.Fatalf("undelivered StalenessSeconds = %v, want -1", never.StalenessSeconds)
	}
	d2.SetWatermark(100)
	if got := b.Snapshot()[1].WatermarkLag; got != 0 {
		t.Fatalf("lag with watermark ahead = %d, want clamped 0", got)
	}

	// Nil safety: board and rows.
	var nb *FleetBoard
	if nb.Device(1) != nil || nb.Snapshot() != nil {
		t.Fatal("nil board not inert")
	}
	var nh *DeviceHealth
	nh.SetSpoolDepth(1)
	nh.NoteSpooled(1)
	nh.SetSpoolAcked(1)
	nh.SetWatermark(1)
	nh.NoteDelivery()
	nh.NoteRedelivery()
	nh.NoteKick()
	nh.NoteEviction()
	nh.NoteAckBatch(1)
	nh.NoteDeadlineReject(1)
	nh.NoteDeadlineFallback()
}

// TestObserverSpanPlumbing pins the Observer-level wiring: an attached
// observer's ring records stages and feeds the nine stage histograms New
// registers, and a nil observer stays inert.
func TestObserverSpanPlumbing(t *testing.T) {
	o := New(32)
	snap := o.Registry().Snapshot()
	for _, st := range stageNames {
		if _, ok := snap.Histograms["span.stage_seconds."+st]; !ok {
			t.Fatalf("stage histogram for %q not registered", st)
		}
	}
	o.Ring().RecordStage(StageSelect, Event{Trace: 1})
	if got := o.Registry().Snapshot().Histograms["span.stage_seconds.select"].Count; got != 1 {
		t.Fatalf("select histogram count = %d, want 1", got)
	}
	var nilObs *Observer
	if nilObs.Ring() != nil || nilObs.Registry() != nil || nilObs.Fleet() != nil {
		t.Fatal("nil observer not inert")
	}
}
