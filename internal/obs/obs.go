// Package obs is the observability substrate for the AdaEdge
// reproduction: a stdlib-only metrics and decision-tracing layer the rest
// of the system reports through. It exists because the framework's whole
// premise is that the bandit reacts to *measured* outcomes — ratio,
// throughput, accuracy loss, uplink pressure — and those measurements
// must be watchable live, not only as end-of-run statistics.
//
// Three primitives cover the needs of every subsystem:
//
//   - Counters and gauges: single atomic words, safe from any goroutine,
//     readable while the hot path increments them (Registry, Counter,
//     Gauge).
//   - Fixed-bucket histograms: lock-free Observe on atomic bucket
//     counters, for compress/decompress latency, frame RTT and spool
//     depth distributions (Histogram).
//   - A bounded in-memory ring of one structured record type, Event: one
//     per bandit pull, decision or delivery step, and one per stage of a
//     segment's lifecycle span, from ingest to collector delivery (Event,
//     Ring; span.go).
//
// The Observer type bundles a Registry and a Ring and is what engines and
// transports accept in their configs. A nil Observer (the default
// everywhere) disables instrumentation entirely: every metric method is
// nil-receiver safe, so the instrumented hot paths pay one predictable
// branch and no clock reads when observability is off. That property is
// load-bearing: cmd/adaedge-e2e attaches no observer, so the benchmark's
// engine workloads measure exactly this disabled path.
//
// # Clock ownership
//
// Codecs are pure functions (DESIGN.md §7) and must never read clocks;
// the root package's TestCodecPackagesPure also fails on any use of this
// package in the codec substrate. Timing therefore happens only at the
// instrumented call sites (core, transport), which time the pure work
// from outside and feed durations into histograms here.
//
// # Determinism
//
// Trace events deliberately carry no wall-clock fields. Events emitted by
// a single goroutine (an engine's decision goroutine, an uplink's pump)
// therefore form a deterministic sequence: the same seeded run produces
// the same events in the same order, which is what lets the chaos and
// determinism tests assert on event streams instead of scraping logs.
// When several goroutines share one Ring, only per-goroutine order is
// guaranteed. See DESIGN.md §9.
//
// # HTTP exposure
//
// Handler serves the whole substrate over an opt-in debug mux: a JSON
// metrics snapshot, expvar-style vars, the trace ring (as a list, and
// grouped into spans), and net/http/pprof profiling. Both CLIs expose it
// behind -debug-addr; OBSERVABILITY.md catalogues every metric, record
// and endpoint.
package obs

import (
	"net"
	"net/http"
	"sync"
)

// Observer bundles the two halves of the substrate — a metric Registry
// and a trace Ring — into the single handle engine and transport configs
// accept. An attached Observer records everything, lifecycle stages
// included; the nil Observer disables instrumentation: all methods are
// nil-receiver safe and return nil components, whose methods are in turn
// nil-receiver safe.
type Observer struct {
	reg  *Registry
	ring *Ring

	mu    sync.Mutex
	fleet *FleetBoard           // guarded by mu (lazily created)
	pages map[string]func() any // guarded by mu
}

// New builds an Observer with a fresh Registry and a trace Ring holding
// up to ringCap events (DefaultRingCap when ringCap <= 0), and registers
// the per-stage latency histograms (span.stage_seconds.<stage>) the ring's
// stage records feed.
func New(ringCap int) *Observer {
	o := &Observer{reg: NewRegistry(), ring: NewRing(ringCap)}
	for st, name := range stageNames {
		o.ring.hist[st] = o.reg.Histogram("span.stage_seconds."+name, LatencyBuckets)
	}
	return o
}

// Registry returns the metric registry, or nil on a nil Observer.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Ring returns the trace ring, or nil on a nil Observer. Emitters hold
// the result; a nil ring ignores every record.
func (o *Observer) Ring() *Ring {
	if o == nil {
		return nil
	}
	return o.ring
}

// Fleet returns the per-device health board behind /debug/fleet, creating
// it on first use. Nil-receiver safe (returns nil; a nil board's Device
// returns nil entries whose update methods no-op).
func (o *Observer) Fleet() *FleetBoard {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fleet == nil {
		o.fleet = NewFleetBoard()
	}
	return o.fleet
}

// Publish mounts a JSON page under the debug mux: requests to path (which
// must start with "/debug/") serve snapshot()'s result JSON-encoded.
// Components register their structured state this way — the quality
// tracker publishes /debug/quality — without the handler having to know
// them. Publishing is safe at any time, including after Serve: page lookup
// happens per request, so pages registered by engines built after the
// debug server started still appear. Nil-receiver safe (no-op).
func (o *Observer) Publish(path string, snapshot func() any) {
	if o == nil || path == "" || snapshot == nil {
		return
	}
	o.mu.Lock()
	if o.pages == nil {
		o.pages = make(map[string]func() any)
	}
	o.pages[path] = snapshot
	o.mu.Unlock()
}

// page resolves a published page by exact path (nil when absent).
func (o *Observer) page(path string) func() any {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pages[path]
}

// Serve starts the debug endpoint on addr (":0" picks an ephemeral port)
// and returns the bound address plus a stop function that closes the
// listener. The server goroutine exits when stop is called.
func (o *Observer) Serve(addr string) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: o.Handler()}
	go func() { _ = srv.Serve(ln) }()
	stop := func() error { return srv.Close() }
	return ln.Addr(), stop, nil
}
