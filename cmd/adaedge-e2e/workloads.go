package main

import (
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ml"
	"repro/internal/query"
)

// runner is one workload instance. prepare allocates the harness's own
// bookkeeping; setup, which is what setup_s times, builds the program
// under test and its inputs until the first segment can be handed over
// (online: until it has been delivered, so the first dial and whatever
// the first call initialises lazily are in); warm sends the rest of the
// warm-up; run measures; close stops what setup started.
type runner interface {
	prepare()
	setup() error
	warm() error
	run(seconds float64) (*report, error)
	close()
}

// report is what one run measured. layer is filled by traced runs only,
// except for its pathMetrics.
type report struct {
	attempted, failed int64
	e2e, layer        readings
	notes             []string
}

// newReport returns an empty report. A traced one starts with every
// per-layer metric at 0, which is what a metric reads on a workload that
// does not exercise it.
func newReport(trace bool) *report {
	r := &report{e2e: readings{}, layer: readings{}}
	if trace {
		for _, def := range perLayer {
			r.layer[def.name] = 0
		}
	}
	return r
}

// path records the whole path's clock-based numbers, which are reported
// and not gated, in the order of pathMetrics.
func (r *report) path(values ...float64) {
	for i, def := range pathMetrics {
		r.layer[def.name] = values[i]
	}
}

// workload is one named set of inputs and the path they take.
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same text.
	why string
	new func(seed int64, trace bool, spans *spanLog) runner
}

// cbfPool is the paper's stream: Cylinder-Bell-Funnel series, labelled.
func cbfPool(seed int64) ([][]float64, []int) {
	stream := datasets.NewCBFStream(datasets.CBFConfig{Length: segmentLen, Seed: seed})
	segs, labels := make([][]float64, poolSegments), make([]int, poolSegments)
	for i := range segs {
		segs[i], labels[i] = stream.Next()
	}
	return segs, labels
}

// shiftPool is the paper's Fig 15 stream: half CBF, half low-entropy
// plateaus. Cycled, it flips the regime every poolSegments/2 segments.
func shiftPool(seed int64) ([][]float64, []int) {
	stream := datasets.NewShiftStream(poolSegments, segmentLen, seed)
	segs, labels := make([][]float64, poolSegments), make([]int, poolSegments)
	for i := range segs {
		segs[i], labels[i] = stream.Next()
	}
	return segs, labels
}

// configSeed seeds what belongs to the program's configuration rather
// than to its input: the training set and fitting of the frozen
// ground-truth models, and the engines' own exploration. -seed drives the
// segments, the fault schedule and the backoff jitter. A bandit's
// exploration path decides which of several near-equal arms it settles
// on, so a seed that moved it would make every run a different program
// (README.md has the measurement); this way two runs differ in their
// inputs only.
const configSeed = 1

// trainingSet is the labelled CBF sample the frozen models are fitted on.
func trainingSet() ([][]float64, []int) {
	return datasets.CBF(240, datasets.CBFConfig{Length: segmentLen, Seed: configSeed})
}

var edgeML = onlineSpec{
	pool: cbfPool,
	engine: func(o *online) (core.Config, error) {
		X, y := trainingSet()
		forest, err := ml.FitForest(X, y, ml.ForestConfig{Trees: 15, Seed: configSeed})
		if err != nil {
			return core.Config{}, err
		}
		o.model = forest
		return core.Config{
			TargetRatioOverride: 0.10,
			Objective:           core.MLTarget(forest),
			Workers:             1,
			Seed:                configSeed,
		}, nil
	},
	pipeCap: pipelineCap,
}

var edgeShift = onlineSpec{
	pool: shiftPool,
	engine: func(o *online) (core.Config, error) {
		o.contextual, o.agg = true, true
		return core.Config{
			TargetRatioOverride: 0.20,
			// Max, not Avg: every lossy codec keeps a segment's mean, so
			// under Avg the arms tie and the engine keeps whichever it
			// tried first; Max tells them apart.
			Objective:    core.AggTarget(query.Max),
			BanditPolicy: "contextual",
			Workers:      1,
			Seed:         configSeed,
		}, nil
	},
	pipeCap: pipelineCap,
}

var wireReplay = onlineSpec{pool: cbfPool, pipeCap: pipelineCap}

var wireFlaky = onlineSpec{pool: cbfPool, flaky: true, pipeCap: flakyCap, tailFromPipelined: true}

func onlineWorkload(name, why string, spec *onlineSpec) workload {
	return workload{name, why, func(seed int64, trace bool, spans *spanLog) runner {
		return &online{spec: spec, seed: seed, trace: trace, spans: spans}
	}}
}

var workloads = []workload{
	onlineWorkload("edge_ml",
		"whole path in the lossy regime (CBF, random-forest accuracy target, ratio 0.10): core, compress and ml do most of the work",
		&edgeML),
	onlineWorkload("edge_shift",
		"whole path, regime flips every 2048 segments (max-query target, ratio 0.20, contextual policy): lossless retry loop and byte codecs",
		&edgeShift),
	onlineWorkload("wire_replay",
		"engine bypassed, pre-encoded frames: spool, wire, collector and decode do all the work and core none",
		&wireReplay),
	onlineWorkload("wire_flaky",
		"wire_replay through a seeded fault plan with an outage every ~500 frames: redial, spool replay, watermark dedup",
		&wireFlaky),
	{"offline_recode",
		"storage-constrained mode with no transport: OfflineEngine.Ingest into store.Pool under a 14% byte budget, recode cascade",
		func(seed int64, trace bool, spans *spanLog) runner {
			return &offline{seed: seed, trace: trace, spans: spans}
		}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
