// Package adaedge is the public API of the AdaEdge reproduction: a
// dynamic, hardware-conscious compression-selection framework for
// resource-constrained devices (Liu, Paparrizos, Elmore — ICDE 2024).
//
// The implementation lives under internal/; this package re-exports the
// stable surface a downstream application needs:
//
//   - Online engine: bandwidth-constrained selection and egress.
//   - Offline engine: storage-budgeted cascade recoding.
//   - Codec registry: the lossless and lossy candidate set.
//   - Optimization targets: size, throughput, aggregation accuracy,
//     ML-task accuracy, and weighted combinations.
//   - Observability: metrics, decision tracing and debug endpoints
//     (OBSERVABILITY.md).
//
// Quickstart:
//
//	engine, err := adaedge.NewOnlineEngine(adaedge.Config{
//	    TargetRatioOverride: 0.10,
//	    Objective:           adaedge.AggTarget(adaedge.Sum),
//	})
//	res, enc, err := engine.Process(segment, label)
package adaedge

import (
	"repro/internal/bandit"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
)

// Core engine types.
type (
	// Config parameterizes every engine; zero values select the paper's
	// defaults.
	Config = core.Config
	// OnlineEngine selects compression under a bandwidth-derived target
	// ratio (paper §IV-C1).
	OnlineEngine = core.OnlineEngine
	// OfflineEngine evolves stored data inside a storage budget (paper
	// §IV-C2).
	OfflineEngine = core.OfflineEngine
	// LabeledSegment pairs segment values with a class label.
	LabeledSegment = core.LabeledSegment
	// Result describes one processed segment.
	Result = core.Result
	// Snapshot is one offline space/accuracy sample.
	Snapshot = core.Snapshot
)

// Objective types.
type (
	// Objective is a single- or multi-term optimization target.
	Objective = core.Objective
	// Term is one weighted objective component.
	Term = core.Term
	// TargetKind selects a metric.
	TargetKind = core.TargetKind
)

// Target kinds.
const (
	TargetRatio       = core.TargetRatio
	TargetThroughput  = core.TargetThroughput
	TargetAggAccuracy = core.TargetAggAccuracy
	TargetMLAccuracy  = core.TargetMLAccuracy
)

// Aggregation operators.
type Agg = query.Agg

// Supported aggregations.
const (
	Sum = query.Sum
	Avg = query.Avg
	Min = query.Min
	Max = query.Max
)

// Compression types.
type (
	// Codec is a compression method over float64 segments.
	Codec = compress.Codec
	// LossyCodec is tunable to a target compression ratio.
	LossyCodec = compress.LossyCodec
	// Recoder supports direct recoding without full decompression.
	Recoder = compress.Recoder
	// Encoded is a compressed, self-describing segment.
	Encoded = compress.Encoded
	// Registry is the codec candidate set.
	Registry = compress.Registry
)

// Hardware simulation types.
type (
	// Bandwidth is a link capacity in bytes/second.
	Bandwidth = sim.Bandwidth
	// Link is a time-varying connectivity schedule.
	Link = sim.Link
	// LinkPhase is one phase of a Link schedule.
	LinkPhase = sim.LinkPhase
)

// Network presets.
const (
	Net2G = sim.Net2G
	Net3G = sim.Net3G
	Net4G = sim.Net4G
	Net5G = sim.Net5G
)

// BanditConfig tunes the selection policies.
type BanditConfig = bandit.Config

// Policy orders offline recoding victims, keyed by the dense slots its
// owner assigns (store.Policy).
type Policy = store.Policy

// Engine constructors.
var (
	// NewOnlineEngine builds the online engine.
	NewOnlineEngine = core.NewOnlineEngine
	// NewOfflineEngine builds the offline engine.
	NewOfflineEngine = core.NewOfflineEngine
	// RunOnlineSegments processes a batch through one engine, in order.
	RunOnlineSegments = core.RunOnlineSegments
)

// Objective constructors.
var (
	// SingleTarget builds a one-term objective.
	SingleTarget = core.SingleTarget
	// AggTarget optimizes one aggregation operator's accuracy.
	AggTarget = core.AggTarget
	// MLTarget optimizes agreement with a frozen model.
	MLTarget = core.MLTarget
	// MLTargetFromBytes loads a serialized model as an objective.
	MLTargetFromBytes = core.MLTargetFromBytes
	// Weighted builds a multi-term objective.
	Weighted = core.Weighted
)

// Registry constructors.
var (
	// DefaultRegistry is the paper's 17-codec candidate set.
	DefaultRegistry = compress.DefaultRegistry
	// ExtendedRegistry adds the ModelarDB- and SummaryStore-style codecs.
	ExtendedRegistry = compress.ExtendedRegistry
)

// Recoding policies.
var (
	// NewLRU is the paper's default compression-ordering policy.
	NewLRU = store.NewLRU
	// NewRoundRobin recodes strictly oldest-first (RRDTool-style).
	NewRoundRobin = store.NewRoundRobin
	// NewInformativeness recodes the least query-informative segment
	// first (paper §IV-B2).
	NewInformativeness = store.NewInformativeness
)

// TargetRatioFor derives the online target compression ratio from the
// constraints: the paper's R = B/(64·I).
func TargetRatioFor(ingestPointsPerSec float64, bw Bandwidth) float64 {
	return sim.TargetRatio(ingestPointsPerSec, bw)
}

// DrainReport summarizes one reconnection offload window.
type DrainReport = core.DrainReport

// Transport types for shipping segments to a cloud collector.
type (
	// Frame is one transmitted segment with its codec metadata. A frame
	// handed to a collector sink borrows its payload (Enc.Data) from the
	// connection: it is valid until the sink returns.
	Frame = transport.Frame
	// CloudCollector receives and decompresses segment frames.
	CloudCollector = transport.Collector
)

// NewCloudCollector builds the receiving side; devices reach it with
// transport.DialResilient. The sink's values and its frame's payload are
// reused once it returns: copy what you keep.
var NewCloudCollector = transport.NewCollector

// Observability types (see OBSERVABILITY.md). Attach an Observer via
// Config.Obs (engines), transport.ResilientConfig.Obs (uplink) or
// CloudCollector.Instrument; a nil Observer disables everything.
type (
	// Observer bundles a metric registry, a decision-trace ring, and the
	// opt-in /debug HTTP mux (JSON metrics, expvar-style vars, trace,
	// pprof).
	Observer = obs.Observer
	// TraceEvent is one structured decision-trace entry. Events carry no
	// wall-clock fields, so seeded runs reproduce identical sequences.
	TraceEvent = obs.Event
	// TraceRing is a bounded in-memory event buffer.
	TraceRing = obs.Ring
)

// Observability constructors.
var (
	// NewObserver builds an observer; ringCap <= 0 selects the default
	// trace-ring capacity.
	NewObserver = obs.New
	// NewTraceRing builds a standalone bounded event buffer.
	NewTraceRing = obs.NewRing
)

// CBFStream generates the paper's CBF sensor workload — useful for demos
// and load tests before real sensors are wired in.
type CBFStream = datasets.CBFStream

// CBFConfig parameterizes the generator.
type CBFConfig = datasets.CBFConfig

// NewCBFStream builds a deterministic synthetic sensor stream.
var NewCBFStream = datasets.NewCBFStream
