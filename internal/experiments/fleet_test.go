package experiments

import (
	"encoding/json"
	"strings"
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
	o := obs.New(0)
	res, err := RunFleet(nil, FleetConfig{
		Devices:           10,
		SegmentsPerDevice: 4,
		Seed:              7,
		MaxIdleDevices:    3,
		Obs:               o,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * 4
	if res.ClosedSpans != want {
		t.Fatalf("ClosedSpans = %d, want %d", res.ClosedSpans, want)
	}
	spans := o.Spans()
	if spans == nil {
		t.Fatal("RunFleet did not enable spans on the observer")
	}
	// Cumulative stage counters: exactly one deliver, enqueue and ack per
	// delivered segment (dedup and the spool release are exactly-once);
	// wire.send is at-least-once under retransmission.
	if got := spans.StageCount(obs.StageCollectorDeliver); got != uint64(want) {
		t.Fatalf("collector.deliver count = %d, want %d", got, want)
	}
	if got := spans.StageCount(obs.StageSpoolEnqueue); got != uint64(want) {
		t.Fatalf("spool.enqueue count = %d, want %d", got, want)
	}
	if got := spans.StageCount(obs.StageWireAck); got != uint64(want) {
		t.Fatalf("wire.ack count = %d, want %d", got, want)
	}
	if got := spans.StageCount(obs.StageWireSend); got < uint64(want) {
		t.Fatalf("wire.send count = %d, want >= %d", got, want)
	}
	// Every group is complete and well-formed: enqueue before send before
	// deliver per (device, trace), devices in 1..10, traces in 1..4.
	groups := spans.Groups()
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
	if fb.Len() != 10 {
		t.Fatalf("fleet board rows = %d, want 10", fb.Len())
	}
	for _, d := range fb.Snapshot() {
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

// TestBenchFleetCase checks the fleet cell the matrix emits: fleet block
// present, mode "fleet", deterministic delivered total, and a document
// containing it passes the schema.
func TestBenchFleetCase(t *testing.T) {
	cfg := benchTestConfig()
	c, err := benchFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Mode != "fleet" || c.Fleet == nil {
		t.Fatalf("mode %q fleet %v, want a fleet case", c.Mode, c.Fleet)
	}
	wantDevices := fleetDevicesFor(cfg.Segments)
	if c.Fleet.Devices != wantDevices {
		t.Fatalf("Devices = %d, want %d", c.Fleet.Devices, wantDevices)
	}
	if c.Fleet.Delivered != wantDevices*c.Fleet.SegmentsPerDevice {
		t.Fatalf("Delivered = %d, want %d", c.Fleet.Delivered, wantDevices*c.Fleet.SegmentsPerDevice)
	}
}

// TestBenchSchemaFleet pins the fleet-mode schema rules: the block is
// required for fleet cases, forbidden elsewhere, and its fields are
// validated.
func TestBenchSchemaFleet(t *testing.T) {
	doc := `{
	  "schema_version": 4, "tool": "adaedge-bench", "go_version": "go",
	  "gomaxprocs": 1, "segments": 10, "seed": 11,
	  "cases": [{
	    "name": "fleet_v2", "mode": "fleet", "target": "collector",
	    "segments": 10, "seed": 11,
	    "target_ratio": 0, "storage_bytes": 0,
	    "quality": {"overall_ratio": 0, "mean_accuracy_loss": 0,
	      "lossless_segments": 0, "lossy_segments": 0, "regret_samples": 0,
	      "arm_switches": 0, "optimal_rate": 0, "space_utilization": 0, "recodes": 0,
	      "deadline_fallbacks": 0, "deadline_misses": 0, "deadline_violations": 0},
	    "perf": {"wall_seconds": 1, "segments_per_sec": 1, "raw_bytes_per_sec": 1,
	      "ns_per_segment": 1, "allocs_per_op": 0, "alloc_bytes": 0, "mallocs": 0, "num_gc": 0},
	    "fleet": {"devices": 4, "segments_per_device": 2, "delivered": 8,
	      "duplicates": 0, "sessions_kicked": 0, "evictions": 0,
	      "devices_x_segments_per_sec": 100, "idle_bytes_per_device": 0}
	  }]
	}`
	if err := ValidateBenchJSON([]byte(doc)); err != nil {
		t.Fatalf("valid fleet document rejected: %v", err)
	}
	breakages := []struct {
		name string
		mut  func(c map[string]any)
		want string
	}{
		{"missing fleet block", func(c map[string]any) { delete(c, "fleet") }, "fleet block"},
		{"fleet block on online case", func(c map[string]any) { c["mode"] = "online" }, "fleet block present"},
		{"zero devices", func(c map[string]any) {
			c["fleet"].(map[string]any)["devices"] = 0.0
		}, "devices"},
		{"negative throughput", func(c map[string]any) {
			c["fleet"].(map[string]any)["devices_x_segments_per_sec"] = -1.0
		}, "devices_x_segments_per_sec"},
		{"missing delivered", func(c map[string]any) {
			delete(c["fleet"].(map[string]any), "delivered")
		}, "delivered"},
	}
	for _, bk := range breakages {
		var m map[string]any
		if err := json.Unmarshal([]byte(doc), &m); err != nil {
			t.Fatal(err)
		}
		bk.mut(m["cases"].([]any)[0].(map[string]any))
		broken, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		err = ValidateBenchJSON(broken)
		if err == nil {
			t.Fatalf("%s: broken document passed validation", bk.name)
		}
		if !strings.Contains(err.Error(), bk.want) {
			t.Fatalf("%s: error %q does not mention %q", bk.name, err, bk.want)
		}
	}
}

// TestCompareFleet pins the fleet gate: delivered drift is a quality
// failure, a throughput collapse past the fleet threshold is a perf
// regression, jitter inside it passes, and the fleet case skips the tight
// ns_per_segment gate.
func TestCompareFleet(t *testing.T) {
	mk := func(rate float64, delivered int, ns float64) BenchCase {
		return BenchCase{
			Name: "fleet_v2", Mode: "fleet", Target: "collector",
			Segments: 10, Seed: 11,
			Fleet: &BenchFleet{
				Devices: 4, SegmentsPerDevice: 2, Delivered: delivered,
				DevicesXSegmentsPerSec: rate,
			},
			Perf: BenchPerf{WallSeconds: 1, SegmentsPerSec: 1, RawBytesPerSec: 1,
				NsPerSegment: ns, AllocsPerOp: 0},
		}
	}
	diff := func(oc, nc BenchCase) CompareReport {
		rep := CompareReport{opts: CompareOptions{}.withDefaults()}
		rep.compareCase(oc, nc)
		return rep
	}

	if rep := diff(mk(1000, 8, 100), mk(800, 8, 100)); !rep.OK() {
		t.Fatalf("20%% throughput drop inside the fleet threshold failed: %+v", rep)
	}
	rep := diff(mk(1000, 8, 100), mk(500, 8, 100))
	if rep.OK() || len(rep.PerfRegressions) == 0 {
		t.Fatalf("50%% throughput collapse passed: %+v", rep)
	}
	rep = diff(mk(1000, 8, 100), mk(1000, 7, 100))
	if rep.OK() || len(rep.QualityDiffs) == 0 {
		t.Fatalf("delivered drift passed: %+v", rep)
	}
	// ns_per_segment tripled: would fail the 10% engine gate, but fleet
	// wall clock is gated by the fleet threshold instead.
	if rep := diff(mk(1000, 8, 100), mk(1000, 8, 300)); !rep.OK() {
		t.Fatalf("fleet case hit the engine ns gate: %+v", rep)
	}
	// Fleet block disappearing is a quality failure.
	nc := mk(1000, 8, 100)
	nc.Fleet = nil
	if rep := diff(mk(1000, 8, 100), nc); rep.OK() {
		t.Fatal("fleet block removal passed")
	}
}
