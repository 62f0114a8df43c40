// Command adaedge-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	adaedge-bench -exp all            # every experiment
//	adaedge-bench -exp fig7           # one figure (fig2..fig15, scale)
//	adaedge-bench -exp fig12 -segments 400 -budget 65536
//	adaedge-bench -exp fleet -devices 120 -segments 32
//
// Output is the textual equivalent of each figure's series; EXPERIMENTS.md
// records how the shapes compare with the paper. Speed and allocations are
// measured by cmd/adaedge-e2e, and the engines' seeded decision quality is
// pinned by internal/experiments' TestSeededQualityGolden.
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
	exp := flag.String("exp", "all", "experiment to run: fig2,fig3,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig12,fig13,fig14,fig15,scale,headline,fleet,all")
	segments := flag.Int("segments", 0, "stream length in segments; for -exp fleet, segments per device (0 = experiment default)")
	devices := flag.Int("devices", 0, "fleet experiment: number of simulated devices (0 = default 200)")
	budget := flag.Int64("budget", 0, "offline storage budget in bytes (0 = default)")
	model := flag.String("model", "", "fig7 model kind: dtree|rforest|knn|kmeans (default: all four)")
	format := flag.String("format", "text", "output format: text|csv (csv supports fig2,3,5,6,7,8,9,10,11,12,13,14)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof (and the obs endpoints) on this address while experiments run; -exp fleet then records its spans end to end and prints the health scoreboard; empty disables")
	linger := flag.Duration("linger", 0, "keep the process (and -debug-addr endpoints) alive this long after the experiments")
	flag.Parse()

	var observer *obs.Observer
	if *debugAddr != "" {
		// A fleet run asserts one closed span per delivered segment, so its
		// trace ring must hold the whole run.
		ringCap := 0
		if *exp == "fleet" {
			ringCap = experiments.FleetConfig{Devices: *devices, SegmentsPerDevice: *segments}.TraceRingCap()
		}
		observer = obs.New(ringCap)
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
			// With -debug-addr the run is instrumented: it records spans
			// end to end, asserts exactly one closed span per delivered
			// segment, and fills the per-device health scoreboard.
			_, err := experiments.RunFleet(w, experiments.FleetConfig{
				Devices:           *devices,
				SegmentsPerDevice: *segments,
				Obs:               observer,
			})
			emit(err)
			if observer != nil {
				printFleetBoard(w, observer)
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

// printFleetBoard renders the per-device health scoreboard an instrumented
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
