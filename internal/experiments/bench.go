package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/obs/quality"
	"repro/internal/sim"
)

// Continuous benchmark emitter (`adaedge-bench -exp bench -json ...`): a
// pinned, seeded workload matrix — online and offline mode, the headline
// objectives — whose result is one schema-versioned
// JSON document (BENCH_<n>.json). CI runs it every build and archives the
// artifact, so performance and decision quality have a comparable
// time series instead of ad-hoc terminal runs.
//
// Each case separates two kinds of fields:
//
//   - quality: seeded-deterministic outcomes (ratios, accuracy loss,
//     segment mix, final regret). Identical across runs of the same
//     binary with the same seed — the determinism test pins this, and
//     it is what makes two BENCH files diffable.
//   - perf: wall-clock throughput and allocation statistics. Honest
//     measurements that vary run to run; trends, not invariants.

// BenchSchemaVersion identifies the BENCH_*.json layout. Bump on any
// incompatible field change and keep ValidateBenchJSON in sync.
//
// v2: perf gained ns_per_segment and allocs_per_op (the regression gate's
// primary axes); unknown top-level fields are rejected.
//
// v3: quality gained the deadline counters (deadline_fallbacks,
// deadline_misses, deadline_violations) and the matrix gained the
// contextual cells (online_ctx_ratio, online_ctx_deadline).
//
// v4: the workers dimension is gone (one engine runs on one goroutine);
// cases are keyed by name alone.
const BenchSchemaVersion = 4

// BenchConfig sizes the matrix.
type BenchConfig struct {
	// Segments per case (default 160; CI uses a shorter scale).
	Segments int
	// Seed drives every case's stream and policies (default 11).
	Seed int64
	// Repeats runs each cell this many times and keeps the perf fields
	// from the fastest run (default 3). Quality fields are deterministic,
	// so repeats only reduce scheduler noise on the perf axes; on a shared
	// machine best-of-N still leaves ns_per_segment swinging tens of
	// percent, which is why -compare reports it and gates allocs_per_op.
	Repeats int
}

func (c BenchConfig) withDefaults() BenchConfig {
	if c.Segments <= 0 {
		c.Segments = 160
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Repeats <= 0 {
		c.Repeats = 5
	}
	return c
}

// BenchQuality holds one case's deterministic outcome fields.
type BenchQuality struct {
	OverallRatio     float64 `json:"overall_ratio"`
	MeanAccuracyLoss float64 `json:"mean_accuracy_loss"`
	LosslessSegments int     `json:"lossless_segments"`
	LossySegments    int     `json:"lossy_segments"`
	// FinalRegret is the run's cumulative oracle regret and RegretSamples
	// the number of sampled decisions behind it; nil/0 for modes without
	// the quality oracle (offline).
	FinalRegret   *float64 `json:"final_regret,omitempty"`
	RegretSamples int      `json:"regret_samples"`
	ArmSwitches   int      `json:"arm_switches"`
	OptimalRate   float64  `json:"optimal_rate"`
	// SpaceUtilization and Recodes describe the offline storage budget
	// (zero online).
	SpaceUtilization float64 `json:"space_utilization"`
	Recodes          int     `json:"recodes"`
	// DeadlineFallbacks and DeadlineMisses describe the deadline gate's
	// behaviour on cells that set one (zero elsewhere); both are seeded-
	// deterministic. DeadlineViolations must be 0 on every cell — the
	// gate's invariant; benchOnline errors rather than emit a nonzero.
	DeadlineFallbacks  int `json:"deadline_fallbacks"`
	DeadlineMisses     int `json:"deadline_misses"`
	DeadlineViolations int `json:"deadline_violations"`
}

// BenchPerf holds one case's measured performance fields.
type BenchPerf struct {
	WallSeconds    float64 `json:"wall_seconds"`
	SegmentsPerSec float64 `json:"segments_per_sec"`
	RawBytesPerSec float64 `json:"raw_bytes_per_sec"`
	// NsPerSegment is wall time per processed segment — the latency axis
	// the -compare gate thresholds. Machine-dependent: comparable only
	// between runs on the same hardware.
	NsPerSegment float64 `json:"ns_per_segment"`
	// AllocsPerOp is Mallocs per processed segment. Near-deterministic
	// for a given binary (modulo sync.Pool refills under GC), which is
	// why -compare treats any material increase as a regression.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// AllocBytes/Mallocs/NumGC are runtime.MemStats deltas over the case.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	NumGC      uint32 `json:"num_gc"`
}

// BenchFleet holds the fleet cell's outcome fields. Devices,
// SegmentsPerDevice and Delivered are deterministic (the run errors
// rather than under-deliver) and compare exactly; the session counters
// vary with scheduling and are informational; the throughput axis is
// gated with its own, wider threshold (network wall clock on loopback is
// far noisier than the in-process cells).
type BenchFleet struct {
	Devices           int `json:"devices"`
	SegmentsPerDevice int `json:"segments_per_device"`
	Delivered         int `json:"delivered"`
	Duplicates        int `json:"duplicates"`
	SessionsKicked    int `json:"sessions_kicked"`
	Evictions         int `json:"evictions"`
	// DevicesXSegmentsPerSec is the fleet-aggregate delivery rate the
	// -compare gate thresholds.
	DevicesXSegmentsPerSec float64 `json:"devices_x_segments_per_sec"`
	// IdleBytesPerDevice is the GC'd collector heap growth per device.
	IdleBytesPerDevice float64 `json:"idle_bytes_per_device"`
}

// BenchCase is one cell of the matrix.
type BenchCase struct {
	Name     string `json:"name"`
	Mode     string `json:"mode"`   // "online", "offline" or "fleet"
	Target   string `json:"target"` // objective description
	Segments int    `json:"segments"`
	Seed     int64  `json:"seed"`
	// TargetRatio is the online ratio constraint (0 offline).
	TargetRatio float64 `json:"target_ratio"`
	// StorageBytes is the offline budget (0 online).
	StorageBytes int64        `json:"storage_bytes"`
	Quality      BenchQuality `json:"quality"`
	Perf         BenchPerf    `json:"perf"`
	// Fleet is present exactly when Mode is "fleet".
	Fleet *BenchFleet `json:"fleet,omitempty"`
}

// BenchDoc is the whole BENCH_*.json document.
type BenchDoc struct {
	SchemaVersion int         `json:"schema_version"`
	Tool          string      `json:"tool"`
	GoVersion     string      `json:"go_version"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	Segments      int         `json:"segments"`
	Seed          int64       `json:"seed"`
	Cases         []BenchCase `json:"cases"`
}

// RunBench executes the pinned matrix and returns the document. w (may be
// nil) receives one progress line per case.
func RunBench(w io.Writer, cfg BenchConfig) (BenchDoc, error) {
	cfg = cfg.withDefaults()
	doc := BenchDoc{
		SchemaVersion: BenchSchemaVersion,
		Tool:          "adaedge-bench",
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Segments:      cfg.Segments,
		Seed:          cfg.Seed,
	}
	type spec struct {
		name   string
		target string
		run    func() (BenchCase, error)
	}
	model := trainCBFModel("rforest")
	kmeans := trainCBFModel("kmeans")
	specs := []spec{
		{name: "online_ratio", target: "ratio", run: func() (BenchCase, error) {
			return benchOnline(cfg, "online_ratio", "ratio",
				core.SingleTarget(core.TargetRatio), 0.15, "", 0)
		}},
		{name: "online_ml_rforest", target: "ml(rforest)", run: func() (BenchCase, error) {
			return benchOnline(cfg, "online_ml_rforest", "ml(rforest)",
				core.MLTarget(model), 0.1, "", 0)
		}},
		// The contextual pair mirrors online_ratio: same objective, stream
		// and ratio, so online_ratio vs online_ctx_ratio is a direct
		// warm-start-vs-cold comparison at equal constraints, and
		// online_ctx_deadline adds the 5µs gate (ratio-override cells have
		// no uplink term, so the deadline bounds the cost-model encode
		// latency alone — tight enough to reject the slow transforms).
		{name: "online_ctx_ratio", target: "ratio", run: func() (BenchCase, error) {
			return benchOnline(cfg, "online_ctx_ratio", "ratio",
				core.SingleTarget(core.TargetRatio), 0.15, "contextual", 0)
		}},
		{name: "online_ctx_deadline", target: "ratio", run: func() (BenchCase, error) {
			return benchOnline(cfg, "online_ctx_deadline", "ratio",
				core.SingleTarget(core.TargetRatio), 0.15, "contextual", 5*time.Microsecond)
		}},
		{name: "offline_ml_kmeans", target: "ml(kmeans)", run: func() (BenchCase, error) {
			return benchOffline(cfg, "offline_ml_kmeans", "ml(kmeans)",
				core.MLTarget(kmeans))
		}},
	}
	for _, s := range specs {
		c, err := s.run()
		if err != nil {
			return doc, fmt.Errorf("bench %s: %w", s.name, err)
		}
		// Best-of-N: re-run the cell and keep the fastest run's perf
		// block whole (wall clock and memory deltas belong together).
		// Quality is seeded-deterministic, so run one's copy is
		// canonical.
		for r := 1; r < cfg.Repeats; r++ {
			c2, err := s.run()
			if err != nil {
				return doc, fmt.Errorf("bench %s (repeat %d): %w", s.name, r, err)
			}
			if c2.Perf.WallSeconds < c.Perf.WallSeconds {
				c.Perf = c2.Perf
			}
		}
		doc.Cases = append(doc.Cases, c)
		if w != nil {
			fmt.Fprintf(w, "  %-18s  %8.1f seg/s  ratio %.4f  regret %s\n",
				c.Name, c.Perf.SegmentsPerSec, c.Quality.OverallRatio, fmtRegret(c.Quality.FinalRegret))
		}
	}
	// The fleet cell runs outside the spec loop: each run costs real wall
	// clock on redial backoffs, so it repeats at most twice.
	fc, err := benchFleet(cfg)
	if err != nil {
		return doc, fmt.Errorf("bench %s: %w", fc.Name, err)
	}
	if cfg.Repeats > 1 {
		fc2, err := benchFleet(cfg)
		if err != nil {
			return doc, fmt.Errorf("bench %s (repeat): %w", fc.Name, err)
		}
		if fc2.Perf.WallSeconds < fc.Perf.WallSeconds {
			// Keep the fastest run's whole measurement: the perf block and
			// the fleet throughput/memory axes come from the same run.
			fc.Perf = fc2.Perf
			fc.Fleet.DevicesXSegmentsPerSec = fc2.Fleet.DevicesXSegmentsPerSec
			fc.Fleet.IdleBytesPerDevice = fc2.Fleet.IdleBytesPerDevice
		}
	}
	doc.Cases = append(doc.Cases, fc)
	if w != nil {
		fmt.Fprintf(w, "  %-18s  %8.1f devices*segments/s  %d delivered\n",
			fc.Name, fc.Fleet.DevicesXSegmentsPerSec, fc.Fleet.Delivered)
	}
	return doc, nil
}

// fleetDevicesFor scales the fleet cell's size with the matrix's segment
// scale so shrunken CI and test matrices stay cheap while the committed
// baseline exercises a real fleet. The mapping must be a pure function of
// Segments: -compare requires both documents to agree on it.
func fleetDevicesFor(segments int) int {
	d := segments * 2 / 5 // 120-segment baseline -> 48 devices
	if d < 8 {
		d = 8
	}
	return d
}

// benchFleet runs the fleet cell: the collector-side counterpart of the
// engine cells, measured end to end over loopback TCP with fault
// injection (see RunFleet).
func benchFleet(cfg BenchConfig) (BenchCase, error) {
	fcfg := FleetConfig{
		Devices:           fleetDevicesFor(cfg.Segments),
		SegmentsPerDevice: 6,
		Seed:              cfg.Seed,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunFleet(nil, fcfg)
	if err != nil {
		return BenchCase{Name: "fleet_v2"}, err
	}
	runtime.ReadMemStats(&after)
	return BenchCase{
		Name: "fleet_v2", Mode: "fleet", Target: "collector(v2 sessions)",
		Segments: cfg.Segments, Seed: cfg.Seed,
		Fleet: &BenchFleet{
			Devices:                res.Devices,
			SegmentsPerDevice:      res.SegmentsPerDevice,
			Delivered:              res.Delivered,
			Duplicates:             res.Duplicates,
			SessionsKicked:         res.SessionsKicked,
			Evictions:              res.Evictions,
			DevicesXSegmentsPerSec: res.DevicesXSegmentsPerSec,
			IdleBytesPerDevice:     res.IdleBytesPerDevice,
		},
		Perf: benchPerf(res.WallSeconds, res.Delivered, res.RawBytes, &before, &after),
	}, nil
}

func fmtRegret(r *float64) string {
	if r == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", *r)
}

// benchOnline runs one online cell with the quality oracle attached.
// policy "" selects the default ε-greedy; a positive deadline arms the
// per-segment latency gate.
func benchOnline(cfg BenchConfig, name, target string, obj core.Objective, ratio float64, policy string, deadline time.Duration) (BenchCase, error) {
	eng, err := core.NewOnlineEngine(core.Config{
		TargetRatioOverride: ratio,
		Objective:           obj,
		BanditPolicy:        policy,
		Deadline:            deadline,
		Seed:                cfg.Seed,
		Quality:             &quality.Config{SampleEvery: 4},
	})
	if err != nil {
		return BenchCase{}, err
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: cfg.Seed + 1})
	segs := make([]core.LabeledSegment, cfg.Segments)
	rawBytes := 0
	for i := range segs {
		v, l := stream.Next()
		segs[i] = core.LabeledSegment{Values: v, Label: l}
		rawBytes += 8 * len(v)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := core.RunOnlineSegments(eng, segs); err != nil {
		return BenchCase{}, err
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	st := eng.Stats()
	if st.DeadlineViolations != 0 {
		return BenchCase{}, fmt.Errorf("bench %s: %d deadline violations — the gate's invariant broke", name, st.DeadlineViolations)
	}
	qs := eng.Quality().Snapshot()
	regret := qs.CumulativeRegret
	return BenchCase{
		Name: name, Mode: "online", Target: target,
		Segments: cfg.Segments, Seed: cfg.Seed, TargetRatio: ratio,
		Quality: BenchQuality{
			OverallRatio:     st.OverallRatio(),
			MeanAccuracyLoss: st.MeanAccuracyLoss(),
			LosslessSegments: st.LosslessSegments,
			LossySegments:    st.LossySegments,
			FinalRegret:      &regret,
			RegretSamples:    qs.Samples,
			ArmSwitches:      qs.ArmSwitches,
			OptimalRate:      qs.OptimalRate,

			DeadlineFallbacks:  st.DeadlineFallbacks,
			DeadlineMisses:     st.DeadlineMisses,
			DeadlineViolations: st.DeadlineViolations,
		},
		Perf: benchPerf(wall, cfg.Segments, rawBytes, &before, &after),
	}, nil
}

// benchOffline runs one offline cell: a tight storage budget that forces
// recoding, the paper's Fig 12–13 regime.
func benchOffline(cfg BenchConfig, name, target string, obj core.Objective) (BenchCase, error) {
	budget := int64(cfg.Segments) * 140 // ≈14% of raw: recoding pressure without starvation
	eng, err := core.NewOfflineEngine(core.Config{
		StorageBytes: budget,
		Objective:    obj,
		Seed:         cfg.Seed,
		CodecCost:    core.DefaultCodecCost,
	})
	if err != nil {
		return BenchCase{}, err
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: cfg.Seed + 2})
	type seg struct {
		values []float64
		label  int
	}
	segs := make([]seg, cfg.Segments)
	rawBytes := 0
	for i := range segs {
		v, l := stream.Next()
		segs[i] = seg{v, l}
		rawBytes += 8 * len(v)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, s := range segs {
		if err := eng.Ingest(s.values, s.label); err != nil {
			if errors.Is(err, sim.ErrBudgetExceeded) {
				break
			}
			return BenchCase{}, err
		}
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	st := eng.Stats()
	snap := eng.Snapshot()
	return BenchCase{
		Name: name, Mode: "offline", Target: target,
		Segments: cfg.Segments, Seed: cfg.Seed, StorageBytes: budget,
		Quality: BenchQuality{
			OverallRatio:     float64(eng.Storage().Used()) / float64(rawBytes),
			MeanAccuracyLoss: snap.MeanAccuracyLoss,
			LossySegments:    st.SegmentsIngested,
			SpaceUtilization: snap.SpaceUtilization,
			Recodes:          st.Recodes,
		},
		Perf: benchPerf(wall, st.SegmentsIngested, rawBytes, &before, &after),
	}, nil
}

func benchPerf(wall float64, segments, rawBytes int, before, after *runtime.MemStats) BenchPerf {
	if wall <= 0 {
		wall = 1e-9
	}
	ops := segments
	if ops < 1 {
		ops = 1
	}
	mallocs := after.Mallocs - before.Mallocs
	return BenchPerf{
		WallSeconds:    wall,
		SegmentsPerSec: float64(segments) / wall,
		RawBytesPerSec: float64(rawBytes) / wall,
		NsPerSegment:   wall * 1e9 / float64(ops),
		AllocsPerOp:    float64(mallocs) / float64(ops),
		AllocBytes:     after.TotalAlloc - before.TotalAlloc,
		Mallocs:        mallocs,
		NumGC:          after.NumGC - before.NumGC,
	}
}

// WriteBenchJSON runs the matrix and writes the document to path,
// validating the bytes against the schema before they land on disk.
func WriteBenchJSON(w io.Writer, cfg BenchConfig, path string) (BenchDoc, error) {
	doc, err := RunBench(w, cfg)
	if err != nil {
		return doc, err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return doc, err
	}
	data = append(data, '\n')
	if err := ValidateBenchJSON(data); err != nil {
		return doc, fmt.Errorf("bench: emitted document fails its own schema: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return doc, err
	}
	return doc, nil
}
