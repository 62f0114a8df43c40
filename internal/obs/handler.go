package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
)

// NewHandler builds the opt-in debug mux over a registry and a trace
// ring (either may be nil — the corresponding endpoints then serve empty
// snapshots). Endpoints:
//
//	/debug/metrics   JSON Snapshot of every counter, gauge and histogram,
//	                 plus trace-ring totals; ?format=prom switches to the
//	                 Prometheus text exposition format
//	/debug/vars      expvar-style flat JSON: one key per counter/gauge,
//	                 plus cmdline and memstats
//	/debug/trace     JSON array of buffered trace events, oldest first;
//	                 ?n=K returns only the newest K, ?source=S filters by
//	                 event source, ?device=D by emitting device
//	/debug/spans     the same ring's stage records grouped into
//	                 segment-lifecycle spans (SpanGroup JSON), oldest first;
//	                 ?device=D / ?stage=S filter, ?n=K keeps the newest K,
//	                 ?slowest=K the K largest virtual times
//	/debug/fleet     per-device health scoreboard (DeviceHealthSnapshot
//	                 rows sorted by device; ?device=D selects one)
//	/debug/pprof/    the standard net/http/pprof profiling index
//
// The mux is not registered on http.DefaultServeMux: exposure is the
// caller's explicit choice (both CLIs gate it behind -debug-addr).
func NewHandler(reg *Registry, ring *Ring) http.Handler {
	return newHandler(reg, ring, nil, nil)
}

// debugFilter is the query-parameter set shared by /debug/trace and
// /debug/spans, parsed once per request by parseDebugFilter so both
// endpoints agree on spelling and bounds.
type debugFilter struct {
	source    string // ?source=S exact event source (trace only)
	stage     string // ?stage=S exact span stage name (spans only)
	device    uint64 // ?device=D emitting device
	hasDevice bool
	n         int // ?n=K newest-K bound; -1 = unbounded
	slowest   int // ?slowest=K largest virtual times (spans only); 0 = off
}

// parseDebugFilter extracts the shared filter set; malformed numbers
// leave their filter disabled rather than erroring, matching the
// pre-existing /debug/trace behavior.
func parseDebugFilter(q url.Values) debugFilter {
	f := debugFilter{n: -1}
	f.source = q.Get("source")
	f.stage = q.Get("stage")
	if s := q.Get("device"); s != "" {
		if d, err := strconv.ParseUint(s, 10, 64); err == nil {
			f.device, f.hasDevice = d, true
		}
	}
	if s := q.Get("n"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 {
			f.n = n
		}
	}
	if s := q.Get("slowest"); s != "" {
		if k, err := strconv.Atoi(s); err == nil && k > 0 {
			f.slowest = k
		}
	}
	return f
}

// newHandler is NewHandler plus the Observer-backed resolvers: fleetFn
// yields the fleet board per request, and pageFn is the published-page
// resolver (Observer.page).
func newHandler(reg *Registry, ring *Ring, fleetFn func() *FleetBoard, pageFn func(string) func() any) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", PromContentType)
			_ = reg.Snapshot().WriteProm(w)
			return
		}
		type payload struct {
			Snapshot
			Trace ringTotals `json:"trace"`
		}
		writeJSON(w, payload{Snapshot: reg.Snapshot(), Trace: totalsOf(ring)})
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		vars := make(map[string]any, len(snap.Counters)+len(snap.Gauges)+2)
		for name, v := range snap.Counters {
			vars[name] = v
		}
		for name, v := range snap.Gauges {
			vars[name] = v
		}
		for name, h := range snap.Histograms {
			vars[name] = map[string]any{"count": h.Count, "sum": h.Sum, "mean": h.Mean()}
		}
		vars["cmdline"] = os.Args
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		vars["memstats"] = ms
		writeJSON(w, vars)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		f := parseDebugFilter(r.URL.Query())
		events := ring.Events()
		if f.source != "" || f.hasDevice {
			kept := events[:0]
			for _, ev := range events {
				if f.source != "" && ev.Source != f.source {
					continue
				}
				if f.hasDevice && ev.Device != f.device {
					continue
				}
				kept = append(kept, ev)
			}
			events = kept
		}
		if f.n >= 0 && f.n < len(events) {
			events = events[len(events)-f.n:]
		}
		writeJSON(w, events)
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		f := parseDebugFilter(r.URL.Query())
		groups := ring.Groups()
		if f.hasDevice || f.stage != "" {
			kept := groups[:0]
			for _, g := range groups {
				if f.hasDevice && g.Device != f.device {
					continue
				}
				if f.stage != "" {
					found := false
					for _, s := range g.Stages {
						if s.Stage == f.stage {
							found = true
							break
						}
					}
					if !found {
						continue
					}
				}
				kept = append(kept, g)
			}
			groups = kept
		}
		if f.slowest > 0 {
			// Largest virtual time first; ties broken by first-record
			// order so the output stays deterministic for seeded runs.
			sort.SliceStable(groups, func(i, j int) bool { return groups[i].VT > groups[j].VT })
			if f.slowest < len(groups) {
				groups = groups[:f.slowest]
			}
		} else if f.n >= 0 && f.n < len(groups) {
			groups = groups[len(groups)-f.n:]
		}
		closed := 0
		for _, g := range groups {
			if g.Complete {
				closed++
			}
		}
		type payload struct {
			ringTotals
			Closed int         `json:"closed"`
			Groups []SpanGroup `json:"groups"`
		}
		writeJSON(w, payload{ringTotals: totalsOf(ring), Closed: closed, Groups: groups})
	})
	mux.HandleFunc("/debug/fleet", func(w http.ResponseWriter, r *http.Request) {
		f := parseDebugFilter(r.URL.Query())
		var board *FleetBoard
		if fleetFn != nil {
			board = fleetFn()
		}
		devices := board.Snapshot()
		if f.hasDevice {
			kept := devices[:0]
			for _, d := range devices {
				if d.Device == f.device {
					kept = append(kept, d)
				}
			}
			devices = kept
		}
		type payload struct {
			Count   int                    `json:"count"`
			Devices []DeviceHealthSnapshot `json:"devices"`
		}
		if devices == nil {
			devices = []DeviceHealthSnapshot{}
		}
		writeJSON(w, payload{Count: len(devices), Devices: devices})
	})
	if pageFn != nil {
		// Published pages (Observer.Publish) resolve per request; the
		// longer explicit patterns above win over this fallback.
		mux.HandleFunc("/debug/", func(w http.ResponseWriter, r *http.Request) {
			if fn := pageFn(r.URL.Path); fn != nil {
				writeJSON(w, fn())
				return
			}
			http.NotFound(w, r)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ringTotals is the trace ring's bookkeeping as /debug/metrics and
// /debug/spans report it.
type ringTotals struct {
	Total   uint64 `json:"total"`
	Dropped uint64 `json:"dropped"`
	Len     int    `json:"len"`
}

func totalsOf(r *Ring) ringTotals {
	return ringTotals{Total: r.Total(), Dropped: r.Dropped(), Len: r.Len()}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
