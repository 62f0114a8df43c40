package transport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/obs"
)

// tracedFrame is smallFrame with a span identity stamped the canonical
// way (trace = segment ID + 1, never zero).
func tracedFrame(id uint64) Frame {
	f := smallFrame(id)
	f.Trace = obs.TraceOfSegment(id)
	return f
}

// TestFrameTraceRoundTrip: a traced frame round-trips its trace identity
// beside everything else, and an untraced one decodes to trace zero
// (TestFrameGoldenStream pins the bytes).
func TestFrameTraceRoundTrip(t *testing.T) {
	want := tracedFrame(3)
	want.Trace = 1 << 40 // multi-byte uvarint
	r := NewReader(bytes.NewReader(writeFrames(t, want, smallFrame(4))))
	got, err := r.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !sameFrame(got, want) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	if got, err = r.Recv(); err != nil || got.Trace != 0 {
		t.Fatalf("untraced frame decoded trace %d (err %v), want 0", got.Trace, err)
	}
}

// TestCollectorSpanKickEvictReattach drives traced frames through the
// session fault paths — a same-device kick, an idle eviction, and a
// reattach with retransmission — and asserts the stage records stay
// exactly-once: one collector.deliver per trace identity, duplicates
// surfacing as redeliveries on the fleet board, kicks and evictions
// counted on the device's health row.
func TestCollectorSpanKickEvictReattach(t *testing.T) {
	o := obs.New(64)
	col := NewCollectorWith(compress.DefaultRegistry(4), nil,
		CollectorConfig{Shards: 1, MaxIdleDevices: 1}).Instrument(o)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// Session A delivers frame 0, then session B kicks it and retransmits
	// frame 0 (duplicate) before continuing with frame 1.
	a := dialSession(t, addr.String(), 5)
	a.send(t, tracedFrame(0))
	if next := a.ack(t); next != 1 {
		t.Fatalf("ack = %d, want 1", next)
	}
	b := dialSession(t, addr.String(), 5)
	b.send(t, tracedFrame(0))
	b.send(t, tracedFrame(1))
	if next := b.ack(t); next != 1 {
		t.Fatalf("dup ack = %d, want 1", next)
	}
	if next := b.ack(t); next != 2 {
		t.Fatalf("ack = %d, want 2", next)
	}
	_ = a.conn.Close()

	// Occupy the single idle slot with another device, so device 5's
	// detach takes the evict path (the bound evicts the detaching device
	// once the idle slot is full).
	filler := dialSession(t, addr.String(), 6)
	filler.send(t, tracedFrame(0))
	if next := filler.ack(t); next != 1 {
		t.Fatalf("filler ack = %d, want 1", next)
	}
	_ = filler.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := col.Watermarks().Load(6); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("filler never detached")
		}
		time.Sleep(time.Millisecond)
	}

	// Device 5 detaches into a full idle set: evicted down to its
	// watermark. Then it reattaches and retransmits frame 1 (duplicate)
	// plus delivers frame 2.
	_ = b.conn.Close()
	deadline = time.Now().Add(5 * time.Second)
	for col.Evictions() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("device 5 never evicted (evictions = %d)", col.Evictions())
		}
		time.Sleep(time.Millisecond)
	}

	c := dialSession(t, addr.String(), 5)
	defer c.conn.Close()
	c.send(t, tracedFrame(1))
	if next := c.ack(t); next != 2 {
		t.Fatalf("post-evict dup ack = %d, want 2 (watermark lost)", next)
	}
	c.send(t, tracedFrame(2))
	if next := c.ack(t); next != 3 {
		t.Fatalf("ack = %d, want 3", next)
	}

	// Stage records: exactly one deliver per distinct trace across both
	// devices (3 for device 5, 1 for device 6) despite the kick, the
	// eviction and two retransmissions.
	if got := o.Registry().Snapshot().Histograms["span.stage_seconds.collector.deliver"].Count; got != 4 {
		t.Fatalf("collector.deliver count = %d, want 4", got)
	}
	perTrace := map[[2]uint64]int{}
	for _, s := range o.Ring().Events() {
		if s.Stage != "collector.deliver" {
			continue
		}
		perTrace[[2]uint64{s.Device, s.Trace}]++
	}
	for k, n := range perTrace {
		if n != 1 {
			t.Fatalf("device %d trace %d delivered %d span stages, want 1", k[0], k[1], n)
		}
	}
	for _, want := range [][2]uint64{{5, 1}, {5, 2}, {5, 3}, {6, 1}} {
		if perTrace[want] != 1 {
			t.Fatalf("missing deliver span for device %d trace %d (have %v)", want[0], want[1], perTrace)
		}
	}

	// Fleet board: device 5 saw the kick, the eviction and both
	// redeliveries; watermarks advanced to the delivered counts.
	var d5 obs.DeviceHealthSnapshot
	found := false
	for _, row := range o.Fleet().Snapshot() {
		if row.Device == 5 {
			d5, found = row, true
		}
	}
	if !found {
		t.Fatal("device 5 missing from fleet board")
	}
	if d5.Delivered != 3 || d5.Redelivered != 2 {
		t.Fatalf("device 5 delivered=%d redelivered=%d, want 3/2", d5.Delivered, d5.Redelivered)
	}
	if d5.SessionKicks != 1 {
		t.Fatalf("device 5 kicks = %d, want 1", d5.SessionKicks)
	}
	if d5.Evictions == 0 {
		t.Fatal("device 5 eviction not recorded")
	}
	if d5.Watermark != 3 {
		t.Fatalf("device 5 watermark = %d, want 3", d5.Watermark)
	}
}
