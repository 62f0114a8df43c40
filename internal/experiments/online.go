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

// evalFixedLossy measures one fixed lossy codec at one target ratio.
func evalFixedLossy(codec compress.LossyCodec, eval *core.Evaluator, stream []datasetsSeg, ratio float64, higher bool) float64 {
	var sum float64
	for _, seg := range stream {
		if codec.MinRatio(seg.values) > ratio {
			return math.NaN()
		}
		start := time.Now()
		enc, err := codec.CompressRatio(seg.values, ratio)
		dur := time.Since(start)
		if err != nil {
			return math.NaN()
		}
		dec, err := compress.Decompress(codec, enc)
		if err != nil {
			return math.NaN()
		}
		obs := core.Observation{Raw: seg.values, Decoded: dec, CompressedBytes: enc.Size(), Duration: dur}
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
		// AdaEdge MAB.
		eng, err := core.NewOnlineEngine(core.Config{
			TargetRatioOverride: ratio,
			Objective:           obj,
			Seed:                seed + int64(ri),
		})
		if err == nil {
			ok := true
			var valueSum float64
			for _, seg := range stream {
				r, enc, perr := eng.Process(seg.values, seg.label)
				if perr != nil {
					ok = false
					break
				}
				if higher {
					// Score every method on the same objective value:
					// lossless segments decode to the raw values.
					dec := seg.values
					if r.Lossy {
						if dec, perr = reg.Decompress(enc); perr != nil {
							ok = false
							break
						}
					}
					valueSum += eval.Reward(core.Observation{
						Raw: seg.values, Decoded: dec,
						CompressedBytes: enc.Size(), Duration: r.Duration,
					})
				}
			}
			if ok {
				if higher {
					res.Series["mab"][ri] = valueSum / float64(segments)
				} else {
					res.Series["mab"][ri] = eng.Stats().MeanAccuracyLoss()
				}
			}
		}

		// Fixed lossy codecs.
		for _, name := range []string{"bufflossy", "paa", "pla", "fft", "lttb", "rrdsample"} {
			c, _ := reg.Lookup(name)
			res.Series[name][ri] = evalFixedLossy(c.(compress.LossyCodec), eval, stream, ratio, higher)
		}

		// Lossless representatives: zero loss inside their workable range;
		// in complex-target mode their objective value is measured (the
		// accuracy terms are perfect, throughput and size are not).
		for _, name := range []string{"sprintz", "gzip"} {
			c, _ := reg.Lookup(name)
			feasible := true
			var sum float64
			for _, seg := range stream {
				start := time.Now()
				enc, err := compress.Compress(c, seg.values)
				dur := time.Since(start)
				if err != nil || enc.Ratio() > ratio {
					feasible = false
					break
				}
				sum += eval.Reward(core.Observation{
					Raw: seg.values, Decoded: seg.values,
					CompressedBytes: enc.Size(), Duration: dur,
				})
			}
			if feasible {
				if higher {
					res.Series[name][ri] = sum / float64(segments)
				} else {
					res.Series[name][ri] = 0
				}
			}
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
		{
			var sum float64
			ok := true
			for _, seg := range stream {
				start := time.Now()
				enc, err := tv.Process(seg.values, ratio)
				dur := time.Since(start)
				if err != nil {
					ok = false
					break
				}
				dec, err := reg.Decompress(enc)
				if err != nil {
					ok = false
					break
				}
				obs := core.Observation{Raw: seg.values, Decoded: dec, CompressedBytes: enc.Size(), Duration: dur}
				if higher {
					sum += eval.Reward(obs)
				} else {
					sum += eval.AccuracyLoss(obs)
				}
			}
			if ok {
				res.Series["tvstore_pla"][ri] = sum / float64(segments)
			}
		}
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
