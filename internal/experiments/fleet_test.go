package experiments

import (
	"testing"

	"repro/internal/obs"
)

// TestRunFleetExactlyOnce is the fleet contract at unit-test scale: a
// small fleet under staggered outages and the common herd reset delivers
// every segment exactly once (RunFleet errors on anything else), and the
// run visibly exercised the fault machinery.
func TestRunFleetExactlyOnce(t *testing.T) {
	res, err := RunFleet(nil, FleetConfig{
		Devices:           12,
		SegmentsPerDevice: 4,
		Seed:              7,
		MaxIdleDevices:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 12*4 {
		t.Fatalf("Delivered = %d, want %d", res.Delivered, 12*4)
	}
	if res.DevicesXSegmentsPerSec <= 0 {
		t.Fatalf("DevicesXSegmentsPerSec = %v, want > 0", res.DevicesXSegmentsPerSec)
	}
	if res.Dials < 12 {
		t.Fatalf("Dials = %d, want at least one per device", res.Dials)
	}
	// The common ResetAt breaks every device's first session, so the
	// fleet must redial: strictly more dials than devices.
	if res.Dials <= 12 {
		t.Fatalf("Dials = %d, want > %d (herd reset forces redials)", res.Dials, 12)
	}
	if res.ResidentDevices > 3 {
		t.Fatalf("ResidentDevices = %d, want <= MaxIdleDevices 3", res.ResidentDevices)
	}
	if res.Evictions == 0 {
		t.Fatal("Evictions = 0, want the idle bound exercised")
	}
	if res.WatermarkDevices == 0 {
		t.Fatal("WatermarkDevices = 0, want evicted devices tracked by watermark")
	}
}

// TestRunFleetSpansComplete is the tentpole's end-to-end assertion: with
// the observability substrate attached, a fleet run under faults closes
// exactly one end-to-end span per delivered segment — the trace identity
// each device stamps on its frames survives the spool, retransmissions
// and the frame header, and joins the collector's deliver record.
func TestRunFleetSpansComplete(t *testing.T) {
	cfg := FleetConfig{
		Devices:           10,
		SegmentsPerDevice: 4,
		Seed:              7,
		MaxIdleDevices:    3,
	}
	o := obs.New(cfg.TraceRingCap())
	cfg.Obs = o
	res, err := RunFleet(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * 4
	if res.ClosedSpans != want {
		t.Fatalf("ClosedSpans = %d, want %d", res.ClosedSpans, want)
	}
	if d := o.Ring().Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d records at TraceRingCap", d)
	}
	// Stage histograms count every stage: exactly one deliver, enqueue
	// and ack per delivered segment (dedup and the spool release are
	// exactly-once); wire.send is at-least-once under retransmission.
	stageCount := func(stage string) int64 {
		return o.Registry().Snapshot().Histograms["span.stage_seconds."+stage].Count
	}
	for _, stage := range []string{"collector.deliver", "spool.enqueue", "wire.ack"} {
		if got := stageCount(stage); got != int64(want) {
			t.Fatalf("%s count = %d, want %d", stage, got, want)
		}
	}
	if got := stageCount("wire.send"); got < int64(want) {
		t.Fatalf("wire.send count = %d, want >= %d", got, want)
	}
	// Every group is complete and well-formed: enqueue before send before
	// deliver per (device, trace), devices in 1..10, traces in 1..4.
	groups := o.Ring().Groups()
	if len(groups) != want {
		t.Fatalf("span groups = %d, want %d", len(groups), want)
	}
	for _, g := range groups {
		if !g.Complete {
			t.Fatalf("span (device %d, trace %d) incomplete: %+v", g.Device, g.Trace, g.Stages)
		}
		if g.Device < 1 || g.Device > 10 || g.Trace < 1 || g.Trace > 4 {
			t.Fatalf("span identity out of range: device %d trace %d", g.Device, g.Trace)
		}
	}
	// The fleet health board filled from the same run: every device row
	// reports its full delivery and a drained spool.
	fb := o.Fleet()
	rows := fb.Snapshot()
	if len(rows) != 10 {
		t.Fatalf("fleet board rows = %d, want 10", len(rows))
	}
	for _, d := range rows {
		if d.Delivered != 4 {
			t.Fatalf("device %d Delivered = %d, want 4", d.Device, d.Delivered)
		}
		if d.SpoolDepth != 0 {
			t.Fatalf("device %d SpoolDepth = %d, want drained", d.Device, d.SpoolDepth)
		}
		if d.Watermark != 4 || d.SpoolAcked != 4 {
			t.Fatalf("device %d watermark = %d acked = %d, want 4/4", d.Device, d.Watermark, d.SpoolAcked)
		}
		if d.WatermarkLag != 0 {
			t.Fatalf("device %d WatermarkLag = %d, want 0", d.Device, d.WatermarkLag)
		}
	}
}
