// Package experiments regenerates every figure of the paper's evaluation
// (§V). Each FigN function runs the corresponding experiment on synthetic
// substrates (see DESIGN.md §2 for substitutions) and writes the same
// series the paper plots; EXPERIMENTS.md records the paper-vs-measured
// comparison. The functions also return structured results so bench_test.go
// and unit tests can assert on shapes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/compress"
	"repro/internal/datasets"
	"repro/internal/ml"
)

// cbfPrecision is the decimal precision of the CBF dataset (paper §V).
const cbfPrecision = 4

// ThroughputRow is one codec's measurement for Fig 2.
type ThroughputRow struct {
	Codec     string
	MBPerSec  float64
	PtsPerSec float64
	Qualified bool // can keep up with the reference signal rate
}

// Fig2SignalRate is the paper's example signal: 4 million points/second
// (a typical oil-well platform).
const Fig2SignalRate = 4e6

// Fig2CompressionThroughput measures each codec's full-speed compression
// throughput on CBF segments and reports whether it can handle the 4 M
// pts/s reference signal (paper Fig 2: most codecs qualify except the
// byte compressors).
func Fig2CompressionThroughput(w io.Writer, segments int) []ThroughputRow {
	if segments <= 0 {
		segments = 200
	}
	reg := compress.DefaultRegistry(cbfPrecision)
	X, _ := datasets.CBF(segments, datasets.CBFConfig{Seed: 2})
	var rows []ThroughputRow
	for _, name := range reg.Names() {
		codec, _ := reg.Lookup(name)
		lossy, isLossy := codec.(compress.LossyCodec)
		var points int
		start := time.Now()
		for _, seg := range X {
			if isLossy {
				if _, err := lossy.CompressRatio(seg, 0.1); err != nil {
					continue
				}
			} else if _, err := compress.Compress(codec, seg); err != nil {
				continue
			}
			points += len(seg)
		}
		dur := time.Since(start).Seconds()
		if dur <= 0 {
			dur = 1e-9
		}
		pts := float64(points) / dur
		label := name
		if isLossy {
			label += "*" // paper's marker for lossy codecs
		}
		rows = append(rows, ThroughputRow{
			Codec:     label,
			MBPerSec:  pts * 8 / 1e6,
			PtsPerSec: pts,
			Qualified: pts >= Fig2SignalRate,
		})
	}
	if w != nil {
		fmt.Fprintf(w, "Fig 2: compression ingest throughput vs %.0fM pts/s signal (* = lossy)\n", Fig2SignalRate/1e6)
		fmt.Fprintf(w, "%-12s %12s %12s %10s\n", "codec", "MB/s", "Mpts/s", "qualified")
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %12.1f %12.2f %10v\n", r.Codec, r.MBPerSec, r.PtsPerSec/1e6, r.Qualified)
		}
	}
	return rows
}

// EgressRow is one codec's measurement for Fig 3.
type EgressRow struct {
	Codec      string
	EgressMBps float64
	Fits3G     bool
	Fits4G     bool
}

// Fig3EgressRate computes each codec's egress rate on the 4 MHz double
// signal (32 MB/s raw) and compares it against the network capacity lines
// (paper Fig 3: several lossless codecs fit under 4G, none under 3G;
// lossy codecs can always be tuned to fit).
func Fig3EgressRate(w io.Writer, segments int) []EgressRow {
	if segments <= 0 {
		segments = 200
	}
	reg := compress.DefaultRegistry(cbfPrecision)
	X, _ := datasets.CBF(segments, datasets.CBFConfig{Seed: 3})
	const rawMBps = Fig2SignalRate * 8 / 1e6 // 32 MB/s

	rows := []EgressRow{{Codec: "uncompressed", EgressMBps: rawMBps}}
	for _, name := range reg.Names() {
		codec, _ := reg.Lookup(name)
		var rawBytes, compBytes int64
		if lossy, isLossy := codec.(compress.LossyCodec); isLossy {
			// Lossy codecs are tuned: the paper configures them to meet
			// the link, here shown at ratio 0.02 (fits 3G).
			for _, seg := range X {
				enc, err := lossy.CompressRatio(seg, 0.02)
				if err != nil {
					continue
				}
				rawBytes += int64(8 * len(seg))
				compBytes += int64(enc.Size())
			}
			name += "*"
		} else {
			for _, seg := range X {
				enc, err := compress.Compress(codec, seg)
				if err != nil {
					continue
				}
				rawBytes += int64(8 * len(seg))
				compBytes += int64(enc.Size())
			}
		}
		if rawBytes == 0 {
			continue
		}
		egress := rawMBps * float64(compBytes) / float64(rawBytes)
		rows = append(rows, EgressRow{Codec: name, EgressMBps: egress})
	}
	const mb3G, mb4G = 1.0, 12.5 // sim.Net3G / Net4G in MB/s
	for i := range rows {
		rows[i].Fits3G = rows[i].EgressMBps <= mb3G
		rows[i].Fits4G = rows[i].EgressMBps <= mb4G
	}
	if w != nil {
		fmt.Fprintf(w, "Fig 3: egress rate of a 4 MHz double signal (raw %.0f MB/s); 3G=%.1f MB/s, 4G=%.1f MB/s\n", rawMBps, mb3G, mb4G)
		fmt.Fprintf(w, "%-14s %12s %8s %8s\n", "codec", "egress MB/s", "fits 3G", "fits 4G")
		for _, r := range rows {
			fmt.Fprintf(w, "%-14s %12.2f %8v %8v\n", r.Codec, r.EgressMBps, r.Fits3G, r.Fits4G)
		}
	}
	return rows
}

// AccuracyPoint is one (ratio, accuracy) sample of a Fig 5/6 sweep.
type AccuracyPoint struct {
	TargetRatio   float64
	AchievedRatio float64
	Accuracy      float64
}

// StaticMLSweep applies one lossy codec at a ladder of ratios to a frozen
// dataset and reports the relative model accuracy (ACC_ml), the protocol
// behind paper Figs 5 and 6.
func StaticMLSweep(model ml.Classifier, codec compress.LossyCodec, X [][]float64, ratios []float64) []AccuracyPoint {
	var out []AccuracyPoint
	for _, r := range ratios {
		var lossy [][]float64
		var achieved float64
		feasible := true
		for _, row := range X {
			if codec.MinRatio(row) > r {
				feasible = false
				break
			}
			enc, err := codec.CompressRatio(row, r)
			if err != nil {
				feasible = false
				break
			}
			dec, err := compress.Decompress(codec, enc)
			if err != nil {
				feasible = false
				break
			}
			achieved += enc.Ratio()
			lossy = append(lossy, dec)
		}
		if !feasible {
			continue
		}
		out = append(out, AccuracyPoint{
			TargetRatio:   r,
			AchievedRatio: achieved / float64(len(X)),
			Accuracy:      ml.MatchAccuracy(model, X, lossy),
		})
	}
	return out
}

// Fig5Result holds the per-codec sweeps for one figure panel.
type Fig5Result map[string][]AccuracyPoint

// Fig5DTreeUCI reproduces Fig 5: decision-tree relative accuracy vs
// compression ratio for BUFF-lossy and PAA on a UCI-style tabular dataset.
func Fig5DTreeUCI(w io.Writer, rows int) Fig5Result {
	if rows <= 0 {
		rows = 300
	}
	X, y := datasets.UCILike(rows, 16, 3, 5)
	model, err := ml.FitTree(X, y, ml.TreeConfig{})
	if err != nil {
		panic(err)
	}
	res := Fig5Result{
		"bufflossy": StaticMLSweep(model, compress.NewBUFFLossy(6), X, []float64{1, 0.59, 0.55, 0.5, 0.44, 0.39, 0.34, 0.27}),
		"paa":       StaticMLSweep(model, compress.NewPAA(), X, []float64{1, 0.5, 0.33, 0.25, 0.2, 0.11, 0.06, 0.03}),
	}
	printSweep(w, "Fig 5: decision-tree accuracy on UCI-like data", res)
	return res
}

// Fig6RForestUCR reproduces Fig 6: random-forest relative accuracy vs
// compression ratio for BUFF-lossy and PAA on a UCR-style series dataset.
func Fig6RForestUCR(w io.Writer, rows int) Fig5Result {
	if rows <= 0 {
		rows = 240
	}
	X, y := datasets.UCRLike(rows, 128, 4, 6)
	model, err := ml.FitForest(X, y, ml.ForestConfig{Trees: 15, Seed: 6})
	if err != nil {
		panic(err)
	}
	res := Fig5Result{
		"bufflossy": StaticMLSweep(model, compress.NewBUFFLossy(5), X, []float64{1, 0.39, 0.34, 0.28, 0.23, 0.19, 0.11}),
		"paa":       StaticMLSweep(model, compress.NewPAA(), X, []float64{1, 0.5, 0.33, 0.25, 0.2, 0.11, 0.06, 0.03}),
	}
	printSweep(w, "Fig 6: random-forest accuracy on UCR-like data", res)
	return res
}

func printSweep(w io.Writer, title string, res Fig5Result) {
	if w == nil {
		return
	}
	fmt.Fprintln(w, title)
	names := make([]string, 0, len(res))
	for name := range res {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %s:\n", name)
		for _, p := range res[name] {
			fmt.Fprintf(w, "    ratio %5.2f (achieved %5.3f)  accuracy %.3f\n", p.TargetRatio, p.AchievedRatio, p.Accuracy)
		}
	}
}
