package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func seededObserver() *Observer {
	o := New(16)
	for range 3 {
		o.Registry().Counter("core.online.segments").Inc()
	}
	o.Registry().Gauge("core.online.effective_target").Set(0.25)
	o.Registry().Histogram("core.online.compress_seconds.gzip", LatencyBuckets).Observe(0.001)
	o.Ring().Record(Event{Source: "core.online", Kind: "decision", ID: 0, Codec: "gzip"})
	o.Ring().Record(Event{Source: "bandit.online.lossless", Kind: "select", Arm: 2})
	return o
}

func get(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return body
}

// TestHandlerEndpoints exercises the full debug mux against a seeded
// observer: metrics snapshot, expvar-style vars, trace ring, and the
// pprof index — the same surface `make obs-smoke` curls end to end.
func TestHandlerEndpoints(t *testing.T) {
	o := seededObserver()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	// /debug/metrics: full typed snapshot.
	var snap struct {
		Counters   map[string]int64             `json:"counters"`
		Gauges     map[string]float64           `json:"gauges"`
		Histograms map[string]HistogramSnapshot `json:"histograms"`
		Trace      struct {
			Total   uint64 `json:"total"`
			Dropped uint64 `json:"dropped"`
			Len     int    `json:"len"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(get(t, srv, "/debug/metrics"), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if snap.Counters["core.online.segments"] != 3 {
		t.Fatalf("metrics counters = %+v", snap.Counters)
	}
	if snap.Gauges["core.online.effective_target"] != 0.25 {
		t.Fatalf("metrics gauges = %+v", snap.Gauges)
	}
	if h := snap.Histograms["core.online.compress_seconds.gzip"]; h.Count != 1 {
		t.Fatalf("metrics histograms = %+v", snap.Histograms)
	}
	if snap.Trace.Total != 2 || snap.Trace.Len != 2 {
		t.Fatalf("metrics trace block = %+v", snap.Trace)
	}

	// /debug/vars: flat expvar-style JSON with cmdline and memstats.
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get(t, srv, "/debug/vars"), &vars); err != nil {
		t.Fatalf("vars JSON: %v", err)
	}
	for _, key := range []string{"core.online.segments", "cmdline", "memstats"} {
		if _, ok := vars[key]; !ok {
			t.Fatalf("vars missing %q (have %d keys)", key, len(vars))
		}
	}

	// /debug/trace: all events, then filtered and truncated.
	var events []Event
	if err := json.Unmarshal(get(t, srv, "/debug/trace"), &events); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(events) != 2 || events[0].Kind != "decision" || events[1].Kind != "select" {
		t.Fatalf("trace events = %+v", events)
	}
	if err := json.Unmarshal(get(t, srv, "/debug/trace?source=core.online"), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Source != "core.online" {
		t.Fatalf("filtered trace = %+v", events)
	}
	if err := json.Unmarshal(get(t, srv, "/debug/trace?n=1"), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != "select" {
		t.Fatalf("truncated trace = %+v", events)
	}

	// /debug/pprof/: the profiling index must be served.
	if body := string(get(t, srv, "/debug/pprof/")); !strings.Contains(body, "profile") {
		t.Fatalf("pprof index unexpected: %.120s", body)
	}
}

// TestServe proves the opt-in listener path used behind -debug-addr: an
// ephemeral port binds, serves the snapshot, and stops cleanly.
func TestServe(t *testing.T) {
	o := seededObserver()
	addr, stop, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(body), "core.online.segments") {
		t.Fatalf("serve snapshot missing metric: %.120s", body)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr.String() + "/debug/metrics"); err == nil {
		t.Fatal("endpoint still reachable after stop")
	}
}
