package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ml"
	"repro/internal/query"
)

// DefaultRatios is the target-compression-ratio sweep of the paper's
// online figures (1.0 down to 0.05).
var DefaultRatios = []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05}

// SweepResult holds one online experiment: per-method series over the
// ratio sweep. Values are mean accuracy loss (Figs 7–9) or mean complex-
// target value (Figs 10–11); NaN marks an infeasible (ratio, method) cell
// — the paper draws those methods as failing outside their workable range.
type SweepResult struct {
	Ratios   []float64
	Series   map[string][]float64
	Higher   bool // true when larger values are better (complex targets)
	Segments int
}

// methodNaN fills a series with NaN.
func seriesNaN(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

// evalFixed scores one method, encode, over the stream: the mean objective
// value (higher) or accuracy loss, or NaN when the method fails on any
// segment. A speed term's T_c is the cost model's encode time for the
// codec that produced each encoding, the clock the engine decides by, so
// every method is timed alike and the same on every run.
func evalFixed(eval *core.Evaluator, reg *compress.Registry, stream []datasetsSeg, higher bool, encode func([]float64) (compress.Encoded, error)) float64 {
	var sum float64
	for _, seg := range stream {
		enc, err := encode(seg.values)
		if err != nil {
			return math.NaN()
		}
		dec, err := reg.Decompress(enc)
		if err != nil {
			return math.NaN()
		}
		tc := core.DefaultCodecCost("encode", enc.Codec, len(seg.values))
		obs := core.Observation{
			Raw: seg.values, Decoded: dec, CompressedBytes: enc.Size(),
			Duration: time.Duration(math.Round(tc * float64(time.Second))),
		}
		if higher {
			sum += eval.Reward(obs)
		} else {
			sum += eval.AccuracyLoss(obs)
		}
	}
	return sum / float64(len(stream))
}

type datasetsSeg struct {
	values []float64
	label  int
}

func cbfStreamSegments(n int, seed int64) []datasetsSeg {
	s := datasets.NewCBFStream(datasets.CBFConfig{Seed: seed})
	out := make([]datasetsSeg, n)
	for i := range out {
		v, l := s.Next()
		out[i] = datasetsSeg{values: v, label: l}
	}
	return out
}

// OnlineSweep runs the full comparison of the paper's online figures: the
// MAB engine against fixed lossy codecs, lossless representatives,
// CodecDB and the TVStore PLA baseline, over the ratio ladder.
func OnlineSweep(obj core.Objective, ratios []float64, segments int, seed int64, higher bool) SweepResult {
	if len(ratios) == 0 {
		ratios = DefaultRatios
	}
	if segments <= 0 {
		segments = 120
	}
	stream := cbfStreamSegments(segments, seed)
	eval, err := core.NewEvaluator(obj)
	if err != nil {
		panic(err)
	}
	reg := compress.DefaultRegistry(cbfPrecision)

	res := SweepResult{Ratios: ratios, Series: map[string][]float64{}, Higher: higher, Segments: segments}
	methods := []string{"mab", "bufflossy", "paa", "pla", "fft", "lttb", "rrdsample", "codecdb", "tvstore_pla", "sprintz", "gzip"}
	for _, m := range methods {
		res.Series[m] = seriesNaN(len(ratios))
	}

	// CodecDB is trained once on a disjoint sample.
	cdb := baseline.NewCodecDB(reg)
	trainX, _ := datasets.CBF(30, datasets.CBFConfig{Seed: seed + 9000})
	_ = cdb.Train(trainX)
	tv := baseline.NewTVStore()

	for ri, ratio := range ratios {
		// AdaEdge MAB, scored like every other method.
		eng, err := core.NewOnlineEngine(core.Config{
			TargetRatioOverride: ratio,
			Objective:           obj,
			Seed:                seed + int64(ri),
		})
		if err == nil {
			res.Series["mab"][ri] = evalFixed(eval, reg, stream, higher, func(v []float64) (compress.Encoded, error) {
				_, enc, err := eng.Process(v, 0)
				return enc, err
			})
		}

		// Fixed lossy codecs.
		for _, name := range []string{"bufflossy", "paa", "pla", "fft", "lttb", "rrdsample"} {
			c, _ := reg.Lookup(name)
			lc := c.(compress.LossyCodec)
			res.Series[name][ri] = evalFixed(eval, reg, stream, higher, func(v []float64) (compress.Encoded, error) {
				if lc.MinRatio(v) > ratio {
					return compress.Encoded{}, compress.ErrRatioInfeasible
				}
				return lc.CompressRatio(v, ratio)
			})
		}

		// Lossless representatives: zero loss inside their workable range;
		// in complex-target mode their objective value is measured (the
		// accuracy terms are perfect, throughput and size are not).
		for _, name := range []string{"sprintz", "gzip"} {
			c, _ := reg.Lookup(name)
			res.Series[name][ri] = evalFixed(eval, reg, stream, higher, func(v []float64) (compress.Encoded, error) {
				enc, err := compress.Compress(c, v)
				if err == nil && enc.Ratio() > ratio {
					err = compress.ErrRatioInfeasible
				}
				return enc, err
			})
		}

		// CodecDB: lossless-only learned selection.
		{
			ok := true
			for _, seg := range stream[:minInt(20, len(stream))] {
				if _, err := cdb.Process(seg.values, ratio); err != nil {
					ok = false
					break
				}
			}
			if ok {
				if higher {
					res.Series["codecdb"][ri] = 1
				} else {
					res.Series["codecdb"][ri] = 0
				}
			}
		}

		// TVStore: fixed PLA at the target ratio.
		res.Series["tvstore_pla"][ri] = evalFixed(eval, reg, stream, higher, func(v []float64) (compress.Encoded, error) {
			return tv.Process(v, ratio)
		})
	}
	return res
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Fig7OnlineML reproduces Fig 7 for one model kind ("dtree", "rforest",
// "knn", "kmeans"): ML accuracy loss vs target compression ratio.
func Fig7OnlineML(w io.Writer, modelKind string, segments int) SweepResult {
	model := trainCBFModel(modelKind)
	res := OnlineSweep(core.MLTarget(model), DefaultRatios, segments, 7, false)
	printSweepResult(w, fmt.Sprintf("Fig 7 (%s): ML accuracy loss vs target ratio", modelKind), res)
	return res
}

// trainCBFModel trains the frozen ground-truth model for the streaming
// experiments.
func trainCBFModel(kind string) ml.Classifier {
	X, y := datasets.CBF(240, datasets.CBFConfig{Seed: 77})
	switch kind {
	case "dtree":
		m, err := ml.FitTree(X, y, ml.TreeConfig{})
		if err != nil {
			panic(err)
		}
		return m
	case "rforest":
		m, err := ml.FitForest(X, y, ml.ForestConfig{Trees: 15, Seed: 77})
		if err != nil {
			panic(err)
		}
		return m
	case "knn":
		m, err := ml.FitKNN(X, y, 3)
		if err != nil {
			panic(err)
		}
		return m
	case "kmeans":
		m, err := ml.FitKMeans(X, ml.KMeansConfig{K: 3, Seed: 77})
		if err != nil {
			panic(err)
		}
		return m
	default:
		panic("unknown model kind " + kind)
	}
}

// Fig8SumQuery reproduces Fig 8: sum-aggregation accuracy loss vs ratio.
func Fig8SumQuery(w io.Writer, segments int) SweepResult {
	res := OnlineSweep(core.AggTarget(query.Sum), DefaultRatios, segments, 8, false)
	printSweepResult(w, "Fig 8: sum query accuracy loss vs target ratio", res)
	return res
}

// Fig9MaxQuery reproduces Fig 9: max-aggregation accuracy loss vs ratio.
func Fig9MaxQuery(w io.Writer, segments int) SweepResult {
	res := OnlineSweep(core.AggTarget(query.Max), DefaultRatios, segments, 9, false)
	printSweepResult(w, "Fig 9: max query accuracy loss vs target ratio", res)
	return res
}

// Fig10ComplexAggML reproduces Fig 10: weighted sum-aggregation + random
// forest target, w = (0.625, 0.375); larger is better.
func Fig10ComplexAggML(w io.Writer, segments int) SweepResult {
	model := trainCBFModel("rforest")
	obj := core.Weighted(
		core.Term{Kind: core.TargetAggAccuracy, Weight: 0.625, Agg: query.Sum},
		core.Term{Kind: core.TargetMLAccuracy, Weight: 0.375, Model: model},
	)
	res := OnlineSweep(obj, DefaultRatios, segments, 10, true)
	printSweepResult(w, "Fig 10: sum-agg + rforest complex target (w=0.625/0.375), higher is better", res)
	return res
}

// Fig11ComplexSpeedML reproduces Fig 11: weighted compression speed +
// random forest target, w = (0.524, 0.476); larger is better.
func Fig11ComplexSpeedML(w io.Writer, segments int) SweepResult {
	model := trainCBFModel("rforest")
	obj := core.Weighted(
		core.Term{Kind: core.TargetThroughput, Weight: 0.524},
		core.Term{Kind: core.TargetMLAccuracy, Weight: 0.476, Model: model},
	)
	res := OnlineSweep(obj, DefaultRatios, segments, 11, true)
	printSweepResult(w, "Fig 11: speed + rforest complex target (w=0.524/0.476), higher is better", res)
	return res
}

func printSweepResult(w io.Writer, title string, res SweepResult) {
	if w == nil {
		return
	}
	fmt.Fprintln(w, title)
	names := make([]string, 0, len(res.Series))
	for name := range res.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s", "ratio")
	for _, r := range res.Ratios {
		fmt.Fprintf(w, " %7.2f", r)
	}
	fmt.Fprintln(w)
	for _, name := range names {
		fmt.Fprintf(w, "%-12s", name)
		for _, v := range res.Series[name] {
			if math.IsNaN(v) {
				fmt.Fprintf(w, " %7s", "fail")
			} else {
				fmt.Fprintf(w, " %7.3f", v)
			}
		}
		fmt.Fprintln(w)
	}
}
