package experiments

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Fleet-scale collector experiment (`adaedge-bench -exp fleet`): hundreds
// of simulated devices drive one sharded collector through pipelined
// sessions, under per-device fault schedules built from
// one shared link cycle staggered per device (outages spread across the
// fleet instead of synchronizing) plus one common scripted reset (every
// device's virtual clock crosses it, so the whole fleet redials — the
// thundering herd after a tower outage). Each device spools exactly
// SegmentsPerDevice frames, waits for the collector's cumulative ACK to
// drain the spool, and disconnects; the collector's idle-eviction bound
// then shrinks resident session state down to the watermark table.
//
// The run is an end-to-end proof of the collector's fleet contract:
//
//   - exactly-once: delivered sink calls must equal Devices ×
//     SegmentsPerDevice, no matter how many retransmissions the fault
//     schedules force (duplicates are absorbed by the per-device
//     watermark). Anything else is an error, not a statistic.
//   - resume, not replay: a session redelivers at most its first frame,
//     so duplicates must not exceed the dials that succeeded.
//   - bounded memory: after the fleet disconnects, resident device state
//     must fall to the eviction bound; the GC'd heap delta per device is
//     reported as what an idle device costs.
//
// Throughput is reported as devices×segments/sec, the fleet-aggregate
// delivery rate.

// Virtual-clock parameters for the per-device fault plans. The rates are
// chosen so a device's ~6-frame burst crosses one or two link outages:
// frames are ~300 virtual bytes, the up-phase carries ~1400, and each
// dial attempt costs 0.03 virtual seconds, which is what walks a device's
// clock across an outage while it redials.
const (
	fleetBytesPerVirtualSec = 2400.0
	fleetDialCostSec        = 0.03
	fleetUpSeconds          = 0.6
	fleetDownSeconds        = 0.25
)

// FleetConfig sizes the fleet simulation.
type FleetConfig struct {
	// Devices is the fleet size (default 200).
	Devices int
	// SegmentsPerDevice is each device's spooled traffic (default 6).
	SegmentsPerDevice int
	// Seed drives the shared segment, every device's backoff jitter, and
	// the fault schedules (default 11).
	Seed int64
	// Shards is the collector's shard count (0 = the transport default).
	Shards int
	// MaxIdleDevices is the collector's idle-eviction bound (default
	// Devices/4, minimum 1) — small enough that the run provably evicts.
	MaxIdleDevices int
	// HerdAt is the virtual time of the common scripted reset (default
	// 0.2): every device's connection breaks once its clock crosses it,
	// and the whole fleet redials.
	HerdAt float64
	// Obs optionally attaches the observability substrate: the collector
	// and every device uplink are instrumented, the span layer is enabled
	// (sized to the fleet's traffic), and every frame carries its trace
	// identity over the wire — so each delivered segment closes one
	// end-to-end span and the run asserts closed == Devices ×
	// SegmentsPerDevice on top of the sink count. The per-device health
	// board behind /debug/fleet fills from the same run. Nil skips all of
	// it (the default; the smoke path stays uninstrumented).
	Obs *obs.Observer
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Devices <= 0 {
		c.Devices = 200
	}
	if c.SegmentsPerDevice <= 0 {
		c.SegmentsPerDevice = 6
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.MaxIdleDevices <= 0 {
		c.MaxIdleDevices = c.Devices / 4
		if c.MaxIdleDevices < 1 {
			c.MaxIdleDevices = 1
		}
	}
	if c.HerdAt <= 0 {
		c.HerdAt = 0.2
	}
	return c
}

// FleetResult is one fleet run's outcome. Delivered is deterministic
// (exactly Devices × SegmentsPerDevice or the run errors); the fault and
// session counters are honest measurements whose exact values depend on
// scheduling.
type FleetResult struct {
	Devices           int
	SegmentsPerDevice int
	// Delivered counts sink invocations: the exactly-once total.
	Delivered int
	// Duplicates counts retransmitted frames the watermark absorbed.
	Duplicates int
	// SessionsKicked and Evictions are the collector's session-takeover
	// and idle-eviction counters.
	SessionsKicked int
	Evictions      int
	// Dials and DialFailures aggregate the fleet's fault-plan attempts.
	Dials        int
	DialFailures int
	// ResidentDevices and WatermarkDevices describe the collector after
	// the fleet disconnected: full session structs still resident vs
	// devices tracked only by their watermark.
	ResidentDevices  int
	WatermarkDevices int
	// WallSeconds and DevicesXSegmentsPerSec are the run's wall clock and
	// the fleet-aggregate delivery rate.
	WallSeconds            float64
	DevicesXSegmentsPerSec float64
	// IdleBytesPerDevice is the GC'd heap growth across the run divided
	// by the fleet size: what one mostly-idle device costs the collector.
	IdleBytesPerDevice float64
	// ClosedSpans is the number of end-to-end segment spans (device-side
	// stages joined by a collector.deliver record under the propagated
	// trace identity). Always Delivered when FleetConfig.Obs is set; 0
	// when it is nil.
	ClosedSpans int
}

// RunFleet executes one fleet simulation. w (may be nil) receives a
// summary line.
func RunFleet(w io.Writer, cfg FleetConfig) (FleetResult, error) {
	cfg = cfg.withDefaults()
	reg := compress.DefaultRegistry(4)
	// Span sizing: each traced segment records spool.enqueue + wire.send +
	// wire.ack + collector.deliver, plus one wire.send per retransmission
	// the fault schedules force — 8× traffic keeps the full fleet's spans
	// buffered so the closed-span completeness check sees every trace.
	spans := cfg.Obs.EnableSpans(cfg.Devices * cfg.SegmentsPerDevice * 8)
	var delivered atomic.Int64
	col := transport.NewCollectorWith(reg, func(transport.Frame, []float64) {
		delivered.Add(1)
	}, transport.CollectorConfig{
		Shards:         cfg.Shards,
		MaxIdleDevices: cfg.MaxIdleDevices,
	}).Instrument(cfg.Obs)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		return FleetResult{}, fmt.Errorf("fleet: %w", err)
	}
	defer func() { _ = col.Close() }()

	// One representative CBF segment, encoded once and shared read-only by
	// every frame: the fleet run measures the collector's session
	// machinery, not the codec.
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: cfg.Seed})
	values, _ := stream.Next()
	enc, err := compress.NewPAA().CompressRatio(values, 0.25)
	if err != nil {
		return FleetResult{}, fmt.Errorf("fleet: %w", err)
	}

	base := sim.NewLink(
		sim.LinkPhase{Seconds: fleetUpSeconds, Bandwidth: sim.Net4G},
		sim.LinkPhase{Seconds: fleetDownSeconds, Bandwidth: 0},
	)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Devices)
	var dials, dialFails atomic.Int64
	start := time.Now()
	for i := 0; i < cfg.Devices; i++ {
		// Stagger the shared outage schedule across the fleet, and script
		// the common herd reset on top.
		offset := base.CycleSeconds() * float64(i) / float64(cfg.Devices)
		plan := sim.NewFaultPlan(base.Shifted(offset), fleetBytesPerVirtualSec, fleetDialCostSec)
		plan.ResetAt(cfg.HerdAt)
		deviceID := uint64(i + 1)
		up, err := transport.DialResilient(transport.ResilientConfig{
			Addr:          addr.String(),
			DeviceID:      deviceID,
			Obs:           cfg.Obs,
			Seed:          cfg.Seed + int64(i),
			SpoolSegments: cfg.SegmentsPerDevice + 1, // headroom: the fleet run never sheds
			BackoffBase:   time.Millisecond,
			BackoffMax:    8 * time.Millisecond,
			DialTimeout:   2 * time.Second,
			WriteTimeout:  5 * time.Second,
			AckTimeout:    5 * time.Second,
			Dialer: func(a string, timeout time.Duration) (net.Conn, error) {
				return plan.Dial(func() (net.Conn, error) {
					return net.DialTimeout("tcp", a, timeout)
				})
			},
		})
		if err != nil {
			return FleetResult{}, fmt.Errorf("fleet device %d: %w", deviceID, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = up.Close() }()
			for s := 0; s < cfg.SegmentsPerDevice; s++ {
				trace := uint64(0)
				if spans != nil {
					trace = obs.TraceOfSegment(uint64(s))
				}
				if err := up.Send(transport.Frame{ID: uint64(s), Label: s % 5, Trace: trace, Enc: enc}); err != nil {
					errs <- fmt.Errorf("fleet device %d: spool segment %d: %w", deviceID, s, err)
					return
				}
			}
			if err := up.WaitDrain(30 * time.Second); err != nil {
				errs <- fmt.Errorf("fleet device %d: %w", deviceID, err)
				return
			}
			t, f := plan.Dials()
			dials.Add(int64(t))
			dialFails.Add(int64(f))
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if wall <= 0 {
		wall = 1e-9
	}
	close(errs)
	for err := range errs {
		return FleetResult{}, err
	}

	// Let the handlers detach (they observe the closed connections
	// asynchronously) so the eviction bound has taken effect before the
	// idle-memory measurement.
	deadline := time.Now().Add(5 * time.Second)
	for col.ResidentDevices() > cfg.MaxIdleDevices && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	expected := cfg.Devices * cfg.SegmentsPerDevice
	if got := int(delivered.Load()); got != expected {
		return FleetResult{}, fmt.Errorf("fleet: delivered %d segments, want exactly %d (exactly-once violated or drain incomplete)", got, expected)
	}
	// A session sends its first frame alone and resumes from the
	// watermark the ACK carries, so that frame is the only one it can
	// redeliver. More duplicates than sessions means sessions are replaying
	// their spool again, which at this scale never converges.
	if dup, sessions := col.Duplicates(), int(dials.Load()-dialFails.Load()); dup > sessions {
		return FleetResult{}, fmt.Errorf("fleet: %d duplicates over %d sessions, want at most one per session", dup, sessions)
	}
	closedSpans := 0
	if spans != nil {
		// Every delivered segment must have closed one end-to-end span:
		// device-side stages joined by a collector.deliver record under
		// the trace identity the wire propagated. WaitDrain already
		// ordered this — the deliver precedes the ACK, the ACK precedes
		// the spool release the drain waits on.
		closedSpans = spans.ClosedSpans()
		if closedSpans != expected {
			return FleetResult{}, fmt.Errorf("fleet: %d closed end-to-end spans, want exactly %d (trace propagation broken)", closedSpans, expected)
		}
	}
	idleBytes := 0.0
	if after.HeapAlloc > before.HeapAlloc {
		idleBytes = float64(after.HeapAlloc-before.HeapAlloc) / float64(cfg.Devices)
	}
	res := FleetResult{
		Devices:                cfg.Devices,
		SegmentsPerDevice:      cfg.SegmentsPerDevice,
		Delivered:              expected,
		Duplicates:             col.Duplicates(),
		SessionsKicked:         col.Kicked(),
		Evictions:              col.Evictions(),
		Dials:                  int(dials.Load()),
		DialFailures:           int(dialFails.Load()),
		ResidentDevices:        col.ResidentDevices(),
		WatermarkDevices:       col.Watermarks().Len(),
		WallSeconds:            wall,
		DevicesXSegmentsPerSec: float64(expected) / wall,
		IdleBytesPerDevice:     idleBytes,
		ClosedSpans:            closedSpans,
	}
	if w != nil {
		fmt.Fprintf(w, "fleet: %d devices x %d segments  %8.1f devices*segments/s  %d dup  %d kicked  %d evicted  %d/%d dials failed  %.0f B/idle device",
			res.Devices, res.SegmentsPerDevice, res.DevicesXSegmentsPerSec,
			res.Duplicates, res.SessionsKicked, res.Evictions,
			res.DialFailures, res.Dials, res.IdleBytesPerDevice)
		if spans != nil {
			fmt.Fprintf(w, "  %d spans closed", res.ClosedSpans)
		}
		fmt.Fprintln(w)
	}
	return res, nil
}
