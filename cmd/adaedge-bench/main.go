// Command adaedge-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	adaedge-bench -exp all            # every experiment
//	adaedge-bench -exp fig7           # one figure (fig2..fig15, scale)
//	adaedge-bench -exp fig12 -segments 400 -budget 65536
//	adaedge-bench -compare BENCH_baseline.json BENCH_new.json
//
// Output is the textual equivalent of each figure's series; EXPERIMENTS.md
// records how the shapes compare with the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig2,fig3,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig12,fig13,fig14,fig15,scale,headline,bench,fleet,all")
	segments := flag.Int("segments", 0, "stream length in segments; for -exp fleet, segments per device (0 = experiment default)")
	devices := flag.Int("devices", 0, "fleet experiment: number of simulated devices (0 = default 200)")
	budget := flag.Int64("budget", 0, "offline storage budget in bytes (0 = default)")
	model := flag.String("model", "", "fig7 model kind: dtree|rforest|knn|kmeans (default: all four)")
	format := flag.String("format", "text", "output format: text|csv (csv supports fig2,3,5,6,7,8,9,10,11,12,13,14)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof (and the obs endpoints) on this address while experiments run; empty disables")
	spans := flag.Bool("spans", false, "fleet experiment: record segment-lifecycle spans and print the per-device health scoreboard (browse at /debug/spans and /debug/fleet with -debug-addr)")
	linger := flag.Duration("linger", 0, "keep the process (and -debug-addr endpoints) alive this long after the experiments")
	jsonPath := flag.String("json", "", "bench experiment: write the schema-versioned BENCH document to this path")
	validate := flag.String("validate", "", "validate an existing BENCH_*.json against the schema and exit")
	compare := flag.String("compare", "", "compare this baseline BENCH_*.json against the NEW document given as the positional argument; exit 1 on regression, 2 on structural error")
	allocSlack := flag.Float64("alloc-slack", 2.0, "compare: allowed absolute allocs_per_op increase; negative fails any increase")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: adaedge-bench -compare OLD.json NEW.json")
			os.Exit(experiments.CompareExitError)
		}
		os.Exit(experiments.RunCompare(os.Stdout, *compare, flag.Arg(0), experiments.CompareOptions{AllocSlack: *allocSlack}))
	}

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := experiments.ValidateBenchJSON(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid (schema version %d)\n", *validate, experiments.BenchSchemaVersion)
		return
	}

	var observer *obs.Observer
	if *debugAddr != "" || *spans {
		observer = obs.New(0)
	}
	if *debugAddr != "" {
		addr, stop, err := observer.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() { _ = stop() }()
		fmt.Fprintf(os.Stderr, "debug listening on %s\n", addr)
	}

	w := os.Stdout
	offCfg := experiments.OfflineConfig{StorageBytes: *budget, Segments: *segments}
	asCSV := *format == "csv"
	textW := w
	if asCSV {
		textW = nil // suppress the text rendering
	}
	emit := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	run := func(name string) {
		switch name {
		case "fig2":
			rows := experiments.Fig2CompressionThroughput(textW, *segments)
			if asCSV {
				emit(experiments.WriteThroughputCSV(w, rows))
			}
		case "fig3":
			rows := experiments.Fig3EgressRate(textW, *segments)
			if asCSV {
				emit(experiments.WriteEgressCSV(w, rows))
			}
		case "fig5":
			res := experiments.Fig5DTreeUCI(textW, *segments)
			if asCSV {
				emit(experiments.WriteStaticSweepCSV(w, res))
			}
		case "fig6":
			res := experiments.Fig6RForestUCR(textW, *segments)
			if asCSV {
				emit(experiments.WriteStaticSweepCSV(w, res))
			}
		case "fig7":
			kinds := []string{"dtree", "rforest", "knn", "kmeans"}
			if *model != "" {
				kinds = []string{*model}
			}
			for _, k := range kinds {
				res := experiments.Fig7OnlineML(textW, k, *segments)
				if asCSV {
					fmt.Fprintf(w, "# fig7 %s\n", k)
					emit(experiments.WriteSweepCSV(w, res))
				}
			}
		case "fig8":
			res := experiments.Fig8SumQuery(textW, *segments)
			if asCSV {
				emit(experiments.WriteSweepCSV(w, res))
			}
		case "fig9":
			res := experiments.Fig9MaxQuery(textW, *segments)
			if asCSV {
				emit(experiments.WriteSweepCSV(w, res))
			}
		case "fig10":
			res := experiments.Fig10ComplexAggML(textW, *segments)
			if asCSV {
				emit(experiments.WriteSweepCSV(w, res))
			}
		case "fig11":
			res := experiments.Fig11ComplexSpeedML(textW, *segments)
			if asCSV {
				emit(experiments.WriteSweepCSV(w, res))
			}
		case "fig12":
			runs := experiments.Fig12Offline(textW, offCfg)
			if asCSV {
				emit(experiments.WriteOfflineCSV(w, runs))
			}
		case "fig13":
			runs := experiments.Fig13Offline(textW, offCfg)
			if asCSV {
				emit(experiments.WriteOfflineCSV(w, runs))
			}
		case "fig14":
			runs := experiments.Fig14HighFrequency(textW, offCfg)
			if asCSV {
				emit(experiments.WriteOfflineCSV(w, runs))
			}
		case "fig15":
			experiments.Fig15aBaselines(w, *segments, 15)
			experiments.Fig15bMAB(w, *segments, 15, nil)
		case "scale":
			experiments.Scalability(w, nil, *segments)
		case "headline":
			experiments.HeadlineClaims(w, *segments)
		case "fleet":
			fleetCfg := experiments.FleetConfig{
				Devices:           *devices,
				SegmentsPerDevice: *segments,
			}
			if *spans {
				// The instrumented run records spans end to end and asserts
				// exactly one closed span per delivered segment.
				fleetCfg.Obs = observer
			}
			_, err := experiments.RunFleet(w, fleetCfg)
			emit(err)
			if *spans {
				printFleetBoard(w, observer)
			}
		case "bench":
			cfg := experiments.BenchConfig{Segments: *segments}
			if *jsonPath != "" {
				fmt.Fprintf(w, "continuous benchmark -> %s\n", *jsonPath)
				_, err := experiments.WriteBenchJSON(w, cfg, *jsonPath)
				emit(err)
			} else {
				fmt.Fprintln(w, "continuous benchmark (use -json PATH to persist)")
				_, err := experiments.RunBench(w, cfg)
				emit(err)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Fprintln(w)
	}

	if *exp == "all" {
		for _, name := range []string{"fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "scale", "headline"} {
			fmt.Fprintf(w, "=== %s ===\n", name)
			run(name)
		}
	} else {
		run(*exp)
	}
	if *linger > 0 {
		fmt.Fprintf(os.Stderr, "lingering %v for debug scraping\n", *linger)
		time.Sleep(*linger)
	}
}

// printFleetBoard renders the per-device health scoreboard a spans-enabled
// fleet run filled in (the same rows /debug/fleet serves).
func printFleetBoard(w *os.File, observer *obs.Observer) {
	rows := observer.Fleet().Snapshot()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w, "fleet health scoreboard:")
	fmt.Fprintf(w, "  %6s %9s %9s %9s %5s %6s %6s %8s\n",
		"device", "delivered", "redeliv", "watermark", "lag", "kicks", "evict", "ackbatch")
	for _, d := range rows {
		fmt.Fprintf(w, "  %6d %9d %9d %9d %5d %6d %6d %8d\n",
			d.Device, d.Delivered, d.Redelivered, d.Watermark,
			d.WatermarkLag, d.SessionKicks, d.Evictions, d.LastAckBatch)
	}
}
