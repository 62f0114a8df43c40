package obs

import (
	"testing"
)

// TestSpanRingRecord pins the basics: canonical stage-name stamping,
// 1-based Seq assignment, cumulative per-stage counters, and the stage
// histogram feed when one is attached.
func TestSpanRingRecord(t *testing.T) {
	r := NewSpanRing(8)
	h := NewRegistry().Histogram("span.stage_seconds.trial", LatencyBuckets)
	r.hist[StageTrial] = h
	r.Record(StageIngest, SpanStage{Device: 1, Trace: 7, Arm: -1})
	r.Record(StageTrial, SpanStage{Device: 1, Trace: 7, Arm: 2, Codec: "paa", Dur: 0.001})
	stages := r.Stages()
	if len(stages) != 2 {
		t.Fatalf("Stages len = %d, want 2", len(stages))
	}
	if stages[0].Stage != "ingest" || stages[0].Seq != 1 {
		t.Fatalf("first record = %+v, want stamped ingest/Seq 1", stages[0])
	}
	if stages[1].Stage != "trial" || stages[1].Seq != 2 || stages[1].Codec != "paa" {
		t.Fatalf("second record = %+v", stages[1])
	}
	if r.Total() != 2 || r.Dropped() != 0 || r.Len() != 2 {
		t.Fatalf("totals: total %d dropped %d len %d", r.Total(), r.Dropped(), r.Len())
	}
	if r.StageCount(StageTrial) != 1 || r.StageCount(StageIngest) != 1 {
		t.Fatalf("stage counts = %v", r.StageCounts())
	}
	if h.Count() != 1 {
		t.Fatalf("trial histogram count = %d, want the Dur observed", h.Count())
	}
	// Out-of-range stages are dropped, not stamped.
	r.Record(numSpanStages, SpanStage{Trace: 9})
	if r.Total() != 2 {
		t.Fatal("out-of-range stage was recorded")
	}
}

// TestSpanRingWraparound pins the bounded-buffer semantics: old records
// evict oldest-first, cumulative counters survive the eviction, and the
// groups assembled from the surviving window stay causally consistent —
// a trace either kept its collector.deliver join (still Complete) or lost
// stages wholesale, but Groups never invents identities.
func TestSpanRingWraparound(t *testing.T) {
	r := NewSpanRing(8)
	// 6 traces × (wire.send + collector.deliver) = 12 records through a
	// capacity-8 ring: the first 4 records (traces 1-2) are evicted.
	for trace := uint64(1); trace <= 6; trace++ {
		r.Record(StageWireSend, SpanStage{Device: 1, Trace: trace})
		r.Record(StageCollectorDeliver, SpanStage{Device: 1, Trace: trace})
	}
	if r.Total() != 12 || r.Dropped() != 4 || r.Len() != 8 {
		t.Fatalf("total %d dropped %d len %d, want 12/4/8", r.Total(), r.Dropped(), r.Len())
	}
	// Cumulative counters survive eviction: all 6 delivers still counted.
	if got := r.StageCount(StageCollectorDeliver); got != 6 {
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
	stages := r.Stages()
	for i := 1; i < len(stages); i++ {
		if stages[i].Seq != stages[i-1].Seq+1 {
			t.Fatalf("Seq gap after wraparound: %d then %d", stages[i-1].Seq, stages[i].Seq)
		}
	}
}

// TestSpanGroupsCompleteness pins the Complete predicate: device-side
// stages alone are open, a deliver alone is open, only the join closes,
// and zero-trace records (untraced wire traffic) never form groups.
func TestSpanGroupsCompleteness(t *testing.T) {
	r := NewSpanRing(16)
	r.Record(StageIngest, SpanStage{Device: 1, Trace: 1})           // device-only
	r.Record(StageCollectorDeliver, SpanStage{Device: 1, Trace: 2}) // deliver-only
	r.Record(StageEncode, SpanStage{Device: 1, Trace: 3})           // joined
	r.Record(StageCollectorDeliver, SpanStage{Device: 1, Trace: 3})
	r.Record(StageWireSend, SpanStage{Device: 1, Trace: 0}) // untraced
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
	r.Record(StageEncode, SpanStage{Device: 2, Trace: 3})
	if got := len(r.Groups()); got != 4 {
		t.Fatalf("groups after second device = %d, want 4 (identity is (device, trace))", got)
	}
}

// TestSpanRingNilSafety: a nil ring ignores writes and returns empty
// snapshots, so emitters hold the pointer unconditionally.
func TestSpanRingNilSafety(t *testing.T) {
	var r *SpanRing
	r.Record(StageIngest, SpanStage{Trace: 1})
	if r.Total() != 0 || r.Dropped() != 0 || r.Len() != 0 {
		t.Fatal("nil ring reported totals")
	}
	if r.Stages() != nil || r.StageCounts() != nil || r.Groups() != nil {
		t.Fatal("nil ring returned non-nil snapshots")
	}
	if r.StageCount(StageTrial) != 0 || r.ClosedSpans() != 0 {
		t.Fatal("nil ring counted stages")
	}
}

// TestStageNames pins the catalogue round trip and causal order.
func TestStageNames(t *testing.T) {
	names := StageNames()
	want := []string{"ingest", "features", "trial", "select", "encode",
		"spool.enqueue", "wire.send", "wire.ack", "collector.deliver"}
	if len(names) != len(want) {
		t.Fatalf("StageNames = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("stage %d = %q, want %q", i, names[i], n)
		}
		st, ok := StageOf(n)
		if !ok || st.String() != n {
			t.Fatalf("StageOf(%q) = %v,%v", n, st, ok)
		}
	}
	if _, ok := StageOf("nope"); ok {
		t.Fatal("StageOf accepted an unknown name")
	}
	if Stage(200).String() != "?" {
		t.Fatal("out-of-range String not ?")
	}
}

// TestTraceOfSegment pins the canonical mapping: never zero.
func TestTraceOfSegment(t *testing.T) {
	if TraceOfSegment(0) != 1 || TraceOfSegment(41) != 42 {
		t.Fatal("TraceOfSegment is not segment ID + 1")
	}
}

// TestAllocsSpanRecord pins the hot-path budget: recording a span stage
// into a warm ring allocates nothing, even with the stage histogram
// attached — the record is copied into the preallocated buffer under the
// ring lock.
func TestAllocsSpanRecord(t *testing.T) {
	o := New(0)
	r := o.EnableSpans(256)
	rec := SpanStage{Device: 3, Trace: 11, Arm: 1, Codec: "paa", VT: 0.25, Dur: 0.01, Value: 0.2}
	for i := 0; i < 512; i++ {
		r.Record(StageTrial, rec)
	}
	if got := testing.AllocsPerRun(1000, func() {
		r.Record(StageTrial, rec)
	}); got != 0 {
		t.Errorf("SpanRing.Record allocates %v/op, want 0", got)
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
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
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
	if nb.Device(1) != nil || nb.Len() != 0 || nb.Snapshot() != nil {
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
	if nh.Device() != 0 {
		t.Fatal("nil row not inert")
	}
}

// TestObserverSpanPlumbing pins the Observer-level lifecycle: spans are
// off by default, EnableSpans is idempotent, registers the nine stage
// histograms, and a nil observer stays inert.
func TestObserverSpanPlumbing(t *testing.T) {
	o := New(0)
	if o.Spans() != nil {
		t.Fatal("spans enabled by default")
	}
	r := o.EnableSpans(32)
	if r == nil || o.Spans() != r {
		t.Fatal("EnableSpans did not install the ring")
	}
	if o.EnableSpans(64) != r {
		t.Fatal("EnableSpans not idempotent")
	}
	snap := o.Registry().Snapshot()
	for _, st := range StageNames() {
		if _, ok := snap.Histograms["span.stage_seconds."+st]; !ok {
			t.Fatalf("stage histogram for %q not registered", st)
		}
	}
	var nilObs *Observer
	if nilObs.EnableSpans(0) != nil || nilObs.Spans() != nil || nilObs.Fleet() != nil {
		t.Fatal("nil observer not inert")
	}
}
