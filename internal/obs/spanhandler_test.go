package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// spanObserver extends the seeded observer with stage records and a fleet
// board shaped like a tiny two-device run: device 1 closed trace 1 end
// to end, device 2 stopped at wire.send.
func spanObserver(t *testing.T) *Observer {
	t.Helper()
	o := seededObserver()
	r := o.Ring()
	r.RecordStage(StageIngest, Event{Device: 1, Trace: 1, Arm: -1, Value: 128})
	r.RecordStage(StageTrial, Event{Device: 1, Trace: 1, Arm: 0, Codec: "gorilla", VT: 0.001, Dur: 0.001})
	r.RecordStage(StageSelect, Event{Device: 1, Trace: 1, Arm: 0, Codec: "gorilla", VT: 0.001})
	r.RecordStage(StageEncode, Event{Kind: "decision", Device: 1, Trace: 1, Arm: 0, Codec: "gorilla", VT: 0.001, Ratio: 0.2})
	r.RecordStage(StageWireSend, Event{Kind: "send", Device: 1, Trace: 1})
	r.RecordStage(StageCollectorDeliver, Event{Kind: "deliver", Device: 1, Trace: 1})
	r.RecordStage(StageIngest, Event{Device: 2, Trace: 1, Arm: -1, Value: 64})
	r.RecordStage(StageWireSend, Event{Kind: "send", Device: 2, Trace: 1, VT: 0.005})
	d1 := o.Fleet().Device(1)
	d1.NoteSpooled(0)
	d1.SetWatermark(1)
	d1.NoteDelivery()
	o.Fleet().Device(2).NoteSpooled(0)
	return o
}

// TestHandlerSpansEndpoint exercises /debug/spans end to end: full
// payload shape, then each filter the fleet scoreboard workflow uses —
// ?device=, ?stage=, ?slowest= and ?n=.
func TestHandlerSpansEndpoint(t *testing.T) {
	o := spanObserver(t)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	type spansPayload struct {
		Total   uint64      `json:"total"`
		Dropped uint64      `json:"dropped"`
		Len     int         `json:"len"`
		Closed  int         `json:"closed"`
		Groups  []SpanGroup `json:"groups"`
	}
	var p spansPayload
	if err := json.Unmarshal(get(t, srv, "/debug/spans"), &p); err != nil {
		t.Fatalf("spans JSON: %v", err)
	}
	// One ring: the two seeded plain events count in the totals but form
	// no group.
	if p.Total != 10 || p.Dropped != 0 || p.Len != 10 {
		t.Fatalf("spans totals = %+v", p)
	}
	if len(p.Groups) != 2 || p.Closed != 1 {
		t.Fatalf("groups = %d closed = %d, want 2/1", len(p.Groups), p.Closed)
	}
	if !p.Groups[0].Complete || p.Groups[1].Complete {
		t.Fatalf("completeness wrong: %+v", p.Groups)
	}
	if len(p.Groups[0].Stages) != 6 || p.Groups[0].Stages[3].Kind != "decision" || p.Groups[0].Stages[3].Stage != "encode" {
		t.Fatalf("device 1 span = %+v, want six stages with the decision as its encode", p.Groups[0].Stages)
	}

	// ?device= keeps only that device's spans.
	if err := json.Unmarshal(get(t, srv, "/debug/spans?device=2"), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 1 || p.Groups[0].Device != 2 || p.Closed != 0 {
		t.Fatalf("device filter = %+v", p)
	}

	// ?stage= keeps spans containing that stage.
	if err := json.Unmarshal(get(t, srv, "/debug/spans?stage=collector.deliver"), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 1 || p.Groups[0].Device != 1 {
		t.Fatalf("stage filter = %+v", p)
	}

	// ?slowest=1 keeps the largest virtual time — device 2's stalled span.
	if err := json.Unmarshal(get(t, srv, "/debug/spans?slowest=1"), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 1 || p.Groups[0].Device != 2 {
		t.Fatalf("slowest filter = %+v", p)
	}

	// ?n=1 keeps the newest group.
	if err := json.Unmarshal(get(t, srv, "/debug/spans?n=1"), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 1 || p.Groups[0].Device != 2 {
		t.Fatalf("n filter = %+v", p)
	}

	// /debug/metrics counts every stage in its histogram, and lists the
	// stages among the ring's records.
	var snap struct {
		Histograms map[string]HistogramSnapshot `json:"histograms"`
		Trace      struct {
			Total uint64 `json:"total"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(get(t, srv, "/debug/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Trace.Total != 10 {
		t.Fatalf("metrics trace block = %+v", snap.Trace)
	}
	for stage, want := range map[string]int64{"trial": 1, "wire.send": 2, "collector.deliver": 1, "wire.ack": 0} {
		if h := snap.Histograms["span.stage_seconds."+stage]; h.Count != want {
			t.Fatalf("%s stage histogram count = %d, want %d", stage, h.Count, want)
		}
	}
}

// TestHandlerFleetEndpoint exercises /debug/fleet: sorted scoreboard
// rows, the ?device= selector, and the no-rows shape (empty array, not
// null — scripts/obs_smoke.sh depends on it).
func TestHandlerFleetEndpoint(t *testing.T) {
	o := spanObserver(t)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	type fleetPayload struct {
		Count   int                    `json:"count"`
		Devices []DeviceHealthSnapshot `json:"devices"`
	}
	var p fleetPayload
	if err := json.Unmarshal(get(t, srv, "/debug/fleet"), &p); err != nil {
		t.Fatalf("fleet JSON: %v", err)
	}
	if p.Count != 2 || len(p.Devices) != 2 {
		t.Fatalf("fleet payload = %+v", p)
	}
	if p.Devices[0].Device != 1 || p.Devices[1].Device != 2 {
		t.Fatalf("fleet rows not sorted: %+v", p.Devices)
	}
	if p.Devices[0].Delivered != 1 || p.Devices[0].Watermark != 1 {
		t.Fatalf("device 1 row = %+v", p.Devices[0])
	}
	if p.Devices[1].StalenessSeconds != -1 {
		t.Fatalf("device 2 staleness = %v, want -1 (never delivered)", p.Devices[1].StalenessSeconds)
	}

	if err := json.Unmarshal(get(t, srv, "/debug/fleet?device=2"), &p); err != nil {
		t.Fatal(err)
	}
	if p.Count != 1 || len(p.Devices) != 1 || p.Devices[0].Device != 2 {
		t.Fatalf("device selector = %+v", p)
	}

	// An observer with no fleet activity serves an empty array.
	empty := httptest.NewServer(New(0).Handler())
	defer empty.Close()
	body := get(t, empty, "/debug/fleet")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	var devices []DeviceHealthSnapshot
	if err := json.Unmarshal(raw["devices"], &devices); err != nil {
		t.Fatalf("devices not an array: %s", body)
	}
	if string(raw["devices"]) == "null" {
		t.Fatalf("empty fleet serialized null, want []: %s", body)
	}
}

// TestHandlerTraceDeviceFilter pins the satellite: /debug/trace accepts
// the same ?device= spelling as /debug/spans.
func TestHandlerTraceDeviceFilter(t *testing.T) {
	o := seededObserver()
	o.Ring().Record(Event{Source: "core.online", Kind: "decision", Device: 7, ID: 9})
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	var events []Event
	if err := json.Unmarshal(get(t, srv, "/debug/trace?device=7"), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Device != 7 || events[0].ID != 9 {
		t.Fatalf("device-filtered trace = %+v", events)
	}
	// Combined with ?source=: both must match.
	if err := json.Unmarshal(get(t, srv, "/debug/trace?device=7&source=bandit.online.lossless"), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("conjunctive filter = %+v", events)
	}
	// Malformed device value disables the filter rather than erroring.
	if err := json.Unmarshal(get(t, srv, "/debug/trace?device=x"), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("malformed device filter dropped events: %+v", events)
	}
}
