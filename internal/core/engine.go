package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bandit"
	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/obs/quality"
	"repro/internal/sim"
	"repro/internal/store"
)

// Config parameterizes both engines. Zero values select the paper's
// defaults.
type Config struct {
	// Precision is the dataset decimal precision (default 4, CBF).
	Precision int
	// IngestRate is the signal generation rate in points/second (default
	// 200 000, the paper's streaming default, §V-B).
	IngestRate float64
	// Bandwidth is the egress link capacity (online mode) at
	// construction; OnlineEngine.Retarget follows a link that changes.
	Bandwidth sim.Bandwidth
	// TargetRatioOverride, when positive, fixes the online target ratio
	// directly instead of deriving it from IngestRate and Bandwidth; the
	// paper's online sweeps are parameterized this way.
	TargetRatioOverride float64
	// StorageBytes is the local storage budget (offline mode).
	StorageBytes int64
	// StorageThreshold is the recoding threshold θ (default 0.8).
	StorageThreshold float64
	// Objective is the optimization target.
	Objective Objective
	// Bandit configures the selection policies. The paper uses optimistic
	// ε-greedy with ε = 0.01 online and 0.1 offline; zero Epsilon selects
	// those defaults per mode.
	Bandit bandit.Config
	// BanditPolicy names the selection policy: "egreedy" (default), "ucb",
	// "gradient" or "contextual" (prediction-warm-started selection, see
	// internal/bandit/contextual and DESIGN.md §11).
	BanditPolicy string
	// Deadline bounds each segment's predicted encode+uplink latency
	// (online engine, DESIGN.md §11). Arms whose predicted total latency
	// misses it are masked out of selection; when nothing feasible
	// remains the engine degrades to the fastest predicted arm instead of
	// dropping the segment. Predictions come from the deterministic codec
	// cost model and the online ridge predictor, never from measured
	// durations, so gating is reproducible run to run. 0 disables the
	// gate. Works under any BanditPolicy.
	Deadline time.Duration
	// SingleLossyMAB collapses the offline per-ratio-range bandit pool
	// into one instance. The paper argues (§IV-C2) that rewards differ
	// too much across ratio ranges for a single instance; this switch
	// exists for the ablation that verifies it.
	SingleLossyMAB bool
	// Registry is the codec candidate set. Nil selects the paper's 17-codec
	// catalog (compress.DefaultRegistry) at Precision: one shared catalog
	// per precision, built by the first engine that asks for it and used
	// by every engine built without a Registry. The engines never hand it
	// out, so nothing can register into it.
	Registry *compress.Registry
	// LossyArms optionally restricts the lossy bandit's arms to the named
	// codecs (they must exist in the Registry). Used by fixed-pair
	// baselines; nil selects every lossy codec in the Registry.
	LossyArms []string
	// LosslessArms optionally restricts the lossless bandit's arms.
	LosslessArms []string
	// Policy orders offline recoding (nil selects LRU).
	Policy store.Policy
	// RecodeBudget enables the CPU-time budget model for the offline
	// recoder: recoding only proceeds as fast as the simulated CPU
	// allows, so expensive decode paths can fall behind ingestion and
	// blow the storage budget (paper Fig 14).
	RecodeBudget bool
	// CPUScale multiplies codec costs under RecodeBudget (default 1;
	// larger = slower simulated device).
	CPUScale float64
	// CodecCost returns the virtual CPU seconds one operation ("decode"
	// or "encode") takes on a segment of n points: the offline recoder
	// charges it to the RecodeBudget model and the online engine to its
	// deadline gate. Nil selects DefaultCodecCost, a deterministic model
	// calibrated to the paper's relative codec costs (Gorilla's bit-serial
	// decode is the slow outlier, §V-B2), so no decision depends on how
	// fast this implementation's codecs run.
	CodecCost func(op, codec string, points int) float64
	// Obs attaches the observability substrate: counters, gauges and
	// latency histograms in its Registry, one decision-trace event per
	// bandit pull in its Ring. Nil (the default) disables instrumentation
	// at the cost of one branch per call site — no registry lookups, no
	// extra clock reads (see internal/obs and DESIGN.md §9).
	Obs *obs.Observer
	// Quality attaches the online decision-quality oracle: per-decision
	// codec attribution plus, on sampled decisions, a full counterfactual
	// evaluation of every feasible arm feeding regret metrics, reward-gap
	// histograms and "regret" trace events (see internal/obs/quality and
	// internal/core/quality.go). Nil disables it; observing never perturbs
	// decisions or rewards.
	Quality *quality.Config
	// DeviceID labels this engine's device on span-stage records and the
	// fleet health board (see internal/obs). Single-device runs leave it
	// 0; the fleet harness assigns each simulated device its ID so
	// device-side spans join the collector's by identity.
	DeviceID uint64
	// Workers is ignored: an engine always decides on one goroutine.
	//
	// Deprecated: more cores mean more engines, one per goroutine
	// (DESIGN.md §7).
	Workers int
	// Seed drives all stochastic components.
	Seed int64
}

func (c Config) withDefaults(online bool) Config {
	if c.Precision == 0 {
		c.Precision = 4
	}
	if c.IngestRate == 0 {
		c.IngestRate = 200_000
	}
	if c.StorageThreshold == 0 {
		c.StorageThreshold = 0.8
	}
	if c.Bandit.Epsilon == 0 {
		if online {
			c.Bandit.Epsilon = 0.01
		} else {
			c.Bandit.Epsilon = 0.1
		}
	}
	if c.Bandit.Optimism == 0 {
		c.Bandit.Optimism = 1
	}
	if c.Bandit.Seed == 0 {
		c.Bandit.Seed = c.Seed + 1
	}
	if c.Registry == nil {
		c.Registry = defaultCatalog(c.Precision)
	}
	if c.CPUScale == 0 {
		c.CPUScale = 1
	}
	if c.CodecCost == nil {
		c.CodecCost = DefaultCodecCost
	}
	return c
}

// defaultCatalogs holds the catalog Config.Registry's nil selects, by
// precision. A catalog is stateless codecs behind a read-mostly lock, so
// any number of engines on any goroutines can share one; building one per
// engine cost a map and 17 codecs each time an offline epoch began.
var defaultCatalogs sync.Map // int → *compress.Registry

// defaultCatalog returns the shared catalog at precision, building it on
// first use.
func defaultCatalog(precision int) *compress.Registry {
	if r, ok := defaultCatalogs.Load(precision); ok {
		return r.(*compress.Registry)
	}
	r, _ := defaultCatalogs.LoadOrStore(precision, compress.DefaultRegistry(precision))
	return r.(*compress.Registry)
}

// armNames resolves the candidate arm list: the override when set, else
// every codec of the requested kind in the registry.
func armNames(override, all []string) []string {
	if len(override) == 0 {
		return all
	}
	out := make([]string, len(override))
	copy(out, override)
	return out
}

// validatePolicy rejects unknown Config.BanditPolicy names up front, so
// a typo fails engine construction instead of silently selecting the
// default policy.
func validatePolicy(cfg Config) error {
	switch cfg.BanditPolicy {
	case "", "egreedy", "ucb", "gradient", "contextual":
		return nil
	}
	return fmt.Errorf("core: unknown BanditPolicy %q (want egreedy, ucb, gradient or contextual)", cfg.BanditPolicy)
}

// newPolicy builds the configured bandit policy. name labels the
// policy's decision-trace events (bandit.Config.Name) when cfg.Obs is
// attached; an explicit cfg.Bandit.Trace/Name wins over the observer.
func newPolicy(cfg Config, arms int, seedOffset int64, name string) bandit.Policy {
	return buildPolicy(cfg, arms, banditConfig(cfg, seedOffset, name))
}

// buildPolicy instantiates the policy Config.BanditPolicy selects. Shared
// by the online engine and the offline per-ratio-range pool factory.
func buildPolicy(cfg Config, arms int, bc bandit.Config) bandit.Policy {
	switch cfg.BanditPolicy {
	case "ucb":
		return bandit.NewUCB1(arms, bc)
	case "gradient":
		return bandit.NewGradient(arms, bc)
	case "contextual":
		// Without per-segment priors (the offline pool never sets any)
		// this behaves like the optimistic ε-greedy baseline; the online
		// engine's contextual layer installs predictions before each
		// Select.
		return bandit.NewContextual(arms, bc)
	}
	return bandit.NewEpsilonGreedy(arms, bc)
}

// banditConfig derives one policy instance's config: seed offset applied,
// trace ring and source label wired from the engine observer.
func banditConfig(cfg Config, seedOffset int64, name string) bandit.Config {
	bc := cfg.Bandit
	bc.Seed += seedOffset
	if bc.Trace == nil {
		bc.Trace = cfg.Obs.Ring()
	}
	if bc.Name == "" {
		bc.Name = name
	}
	return bc
}

// Result describes how one segment was handled.
type Result struct {
	// SegmentID identifies the segment.
	SegmentID uint64
	// Codec is the selected codec name.
	Codec string
	// Lossy reports whether a lossy codec was used.
	Lossy bool
	// Ratio is the achieved compression ratio.
	Ratio float64
	// Reward is the bandit reward observed.
	Reward float64
	// AccuracyLoss is the workload accuracy loss for this segment (0 for
	// lossless).
	AccuracyLoss float64
}

// ErrNoFeasibleCodec is returned when no candidate can satisfy the
// constraints — the failure mode of conventional selectors the paper
// contrasts against; AdaEdge itself only returns it when even RRD-sample
// cannot fit.
var ErrNoFeasibleCodec = errors.New("core: no codec can satisfy the constraints")
