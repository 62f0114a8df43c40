// Command adaedge-e2e is the repository's performance benchmark: it
// drives the whole segment path (engine → spool → wire → collector →
// decode) and the offline recode path from outside, through their public
// functions, on five named workloads, checks every output, and prints
// the end-to-end metrics — or, with -trace 1, the per-layer ones.
//
//	go run . -workload edge_ml -seed 11 -seconds 20 -trace 0
//
// See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupRuns is how many times a run sets the workload up; setup_s is the
// median, and the last one is the instance that is measured. A variable
// so the smoke test can set up once.
var setupRuns = 9

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adaedge-e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 11, "the only source of inputs: pools, models, fault plan and backoff jitter derive from it")
	seconds := fs.Float64("seconds", 20, "how long each workload measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	spanFile := fs.String("spans", "", "with -trace 1, write the bench-side spans to this file (JSON lines)")
	repeat := fs.Int("repeat", 1, "run the set this many times on consecutive seeds and report each metric's spread against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "adaedge-e2e: bad arguments")
		fs.Usage()
		return 2
	}
	if *repeat > 1 && *trace == 1 {
		fmt.Fprintln(stderr, "adaedge-e2e: -repeat checks the end-to-end metrics against their bounds; it takes no -trace 1")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "adaedge-e2e: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	var spans *spanLog
	if *trace == 1 && *spanFile != "" {
		spans = newSpanLog()
	}

	fmt.Fprintf(stdout, "# adaedge-e2e %s GOMAXPROCS=%d nproc=%d commit=%s seed=%d seconds=%g trace=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit(), *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# frozen: segment=%d pool=%d warmup=%d spool=%d caps=%d/%d/%d slice=%d epoch=%d budget=%dB/seg setups=%d pipelined_share=%g\n",
		segmentLen, poolSegments, warmupSegments, spoolSegments, pipelineCap, flakyCap, lockstepCap,
		sliceLen, epochSegments, storageBytesPerSegment, setupRuns, pipelinedShare)

	code := 0
	if *repeat > 1 {
		code = repeatRuns(selected, *seed, *seconds, *repeat, stdout, stderr)
	} else {
		for _, w := range selected {
			res, rep, err := measure(w, *seed, *seconds, *trace == 1, spans)
			if err != nil {
				fmt.Fprintf(stderr, "adaedge-e2e: %s: %v\n", w.name, err)
				return 1
			}
			printResult(stdout, w, *trace == 1, res, rep)
			if !res.Correct {
				code = 1
			}
		}
	}
	if spans != nil {
		if err := spans.writeFile(*spanFile); err != nil {
			fmt.Fprintf(stderr, "adaedge-e2e: writing spans: %v\n", err)
			return 1
		}
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// commit is the VCS revision the binary was built from, when the build
// had one to stamp.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// measure sets the workload up setupRuns times, warms up and measures the
// last instance, and assembles the contract's result.
func measure(w workload, seed int64, seconds float64, trace bool, spans *spanLog) (*result, *report, error) {
	var setups []float64
	var r runner
	for i := 0; i < setupRuns; i++ {
		r = w.new(seed, trace, spans)
		r.prepare()
		t := time.Now()
		err := r.setup()
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			r.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if i < setupRuns-1 {
			r.close()
		}
	}
	defer r.close()
	t := time.Now()
	if err := r.warm(); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	warm := time.Since(t)
	rep, err := r.run(seconds)
	if err != nil {
		return nil, nil, err
	}
	rep.e2e["setup_s"] = median(setups)
	rep.notes = append(rep.notes, fmt.Sprintf("set-ups %.3f s, then a warm-up of %.3f s", setups, warm.Seconds()))

	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue),
	}
	defs, got := endToEnd, rep.e2e
	if trace {
		defs, got = perLayer, rep.layer
	}
	for _, def := range defs {
		v, ok := got[def.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", def.name)
		}
		res.Metrics[def.name] = metricValue{v, def.unit}
	}
	return res, rep, nil
}

// printResult writes the readable table and then, last, the result line.
// The untraced table ends with the path metrics, which are measured on
// every run but, having no bound, belong to the traced run's result.
func printResult(out io.Writer, w workload, trace bool, res *result, rep *report) {
	fmt.Fprintf(out, "# workload %s: %s\n", w.name, w.why)
	for _, n := range rep.notes {
		fmt.Fprintf(out, "#   %s\n", n)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, def := range defs {
		fmt.Fprintf(out, "#   %-36s %14.6g %s\n", def.name, res.Metrics[def.name].Value, def.unit)
	}
	if !trace {
		for _, def := range pathMetrics {
			fmt.Fprintf(out, "#   %-36s %14.6g %s (not gated)\n", def.name, rep.layer[def.name], def.unit)
		}
	}
	fmt.Fprintf(out, "#   attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
}

// repeatRuns is the repeatability check: k runs of each workload, then
// per metric the min, median and max and the interquartile spread as a
// share of the median, against the metric's bound; the path metrics
// follow, which have none. It reports failure when a spread exceeds its
// bound or a run is incorrect. The runs are on consecutive seeds, not on
// one, because that is how the benchmark contract takes its ten runs: a
// bound has to hold across inputs. setup_s is listed and not failed, as
// in the contract, which holds it to its bound between the medians of two
// sets and not within one (a 10-40 ms interval spreads 7-35 % here).
func repeatRuns(selected []workload, seed int64, seconds float64, k int, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range selected {
		series := make(map[string][]float64)
		for i := 0; i < k; i++ {
			res, rep, err := measure(w, seed+int64(i), seconds, false, nil)
			if err != nil {
				fmt.Fprintf(stderr, "adaedge-e2e: %s seed %d: %v\n", w.name, seed+int64(i), err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "adaedge-e2e: %s seed %d: %d of %d failed\n", w.name, seed+int64(i), res.Failed, res.Attempted)
				code = 1
			}
			for name, v := range res.Metrics {
				series[name] = append(series[name], v.Value)
			}
			for _, def := range pathMetrics {
				series[def.name] = append(series[def.name], rep.layer[def.name])
			}
		}
		fmt.Fprintf(stdout, "# %s, %d runs, seeds %d..%d\n", w.name, k, seed, seed+int64(k)-1)
		fmt.Fprintf(stdout, "# %-24s %12s %12s %12s %8s %6s\n", "metric", "min", "median", "max", "spread", "bound")
		for _, def := range append(append([]metric(nil), endToEnd...), pathMetrics...) {
			v := series[def.name]
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			fmt.Fprintf(stdout, "  %-24s %12.6g %12.6g %12.6g %7.2f%%", def.name, lo, q2, hi, 100*spread)
			if bound, gated := bounds[def.name]; gated {
				fmt.Fprintf(stdout, " %5.0f%%", 100*bound)
				switch {
				case spread <= bound:
				case def.name == "setup_s":
					fmt.Fprint(stdout, "  over, not held within a set")
				default:
					fmt.Fprint(stdout, "  OVER")
					code = 1
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	return code
}
