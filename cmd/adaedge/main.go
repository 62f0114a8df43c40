// Command adaedge runs an AdaEdge engine against a simulated edge device:
// a CBF sensor stream, a network link (online mode) or storage budget
// (offline mode), and an optimization target. It prints the selection
// trace and final statistics — a quick way to watch the bandit converge.
//
// Examples:
//
//	adaedge -mode online -ratio 0.1 -target ml -segments 200
//	adaedge -mode online -rate 4000000 -network 4g -target ratio
//	adaedge -mode offline -budget 65536 -target kmeans -segments 400
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/obs/quality"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	mode := flag.String("mode", "online", "online | offline")
	ratio := flag.Float64("ratio", 0, "online target compression ratio (0 = derive from -rate and -network)")
	rate := flag.Float64("rate", 200_000, "signal rate in points/second")
	network := flag.String("network", "4g", "online link: 2g|3g|4g|5g")
	budget := flag.Int64("budget", 64<<10, "offline storage budget in bytes")
	target := flag.String("target", "ratio", "optimization target: ratio|throughput|sum|max|ml|kmeans")
	segments := flag.Int("segments", 200, "number of CBF segments to stream")
	seed := flag.Int64("seed", 1, "deterministic seed")
	verbose := flag.Bool("v", false, "print the per-segment selection trace")
	policy := flag.String("policy", "lru", "offline recoding policy: lru|roundrobin|informativeness")
	ucb := flag.Bool("ucb", false, "use UCB1 instead of optimistic ε-greedy")
	banditName := flag.String("bandit", "", "selection policy: egreedy|ucb|gradient|contextual (empty = egreedy; -ucb wins when set)")
	deadline := flag.Duration("deadline", 0, "per-segment latency deadline (predicted encode+uplink); 0 disables the gate")
	qualityEvery := flag.Int("quality", 0, "online decision-quality oracle: score every Nth decision (0 disables); snapshot at /debug/quality")
	extended := flag.Bool("extended", false, "add the modelar and summary codecs to the candidate set")
	debugAddr := flag.String("debug-addr", "", "serve /debug/{metrics,vars,trace,spans,fleet,pprof} on this address (e.g. 127.0.0.1:0); empty disables")
	spans := flag.Bool("spans", false, "record segment-lifecycle spans (requires -debug-addr; browse at /debug/spans)")
	linger := flag.Duration("linger", 0, "keep the process (and -debug-addr endpoints) alive this long after the run")
	flag.Parse()

	obj, err := buildObjective(*target)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := core.Config{
		IngestRate:          *rate,
		TargetRatioOverride: *ratio,
		StorageBytes:        *budget,
		Objective:           obj,
		Seed:                *seed,
		UseUCB:              *ucb,
		BanditPolicy:        *banditName,
		Deadline:            *deadline,
	}
	if *qualityEvery > 0 {
		cfg.Quality = &quality.Config{SampleEvery: *qualityEvery}
	}
	if *debugAddr != "" {
		observer := obs.New(0)
		if *spans {
			observer.EnableSpans(0)
		}
		cfg.Obs = observer
		addr, stop, err := observer.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() { _ = stop() }()
		// The smoke test parses this line to find the ephemeral port.
		fmt.Printf("debug listening on %s\n", addr)
	} else if *spans {
		fmt.Fprintln(os.Stderr, "-spans requires -debug-addr (spans are browsed at /debug/spans)")
		os.Exit(2)
	}
	switch strings.ToLower(*policy) {
	case "lru", "":
		// engine default
	case "roundrobin", "rr":
		cfg.Policy = store.NewRoundRobin()
	case "informativeness", "info":
		cfg.Policy = store.NewInformativeness()
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}
	if *extended {
		cfg.Registry = compress.ExtendedRegistry(4)
	}
	if bw, err := parseNetwork(*network); err == nil {
		cfg.Bandwidth = bw
	} else if *ratio == 0 {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: *seed + 100})
	switch *mode {
	case "online":
		runOnline(cfg, stream, *segments, *verbose)
	case "offline":
		runOffline(cfg, stream, *segments, *verbose)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *linger > 0 {
		fmt.Printf("lingering %v for debug scraping\n", *linger)
		time.Sleep(*linger)
	}
}

func buildObjective(target string) (core.Objective, error) {
	switch target {
	case "ratio":
		return core.SingleTarget(core.TargetRatio), nil
	case "throughput":
		return core.SingleTarget(core.TargetThroughput), nil
	case "sum":
		return core.AggTarget(query.Sum), nil
	case "max":
		return core.AggTarget(query.Max), nil
	case "ml":
		X, y := datasets.CBF(240, datasets.CBFConfig{Seed: 77})
		m, err := ml.FitKNN(X, y, 3)
		if err != nil {
			return core.Objective{}, err
		}
		return core.MLTarget(m), nil
	case "kmeans":
		X, _ := datasets.CBF(240, datasets.CBFConfig{Seed: 77})
		m, err := ml.FitKMeans(X, ml.KMeansConfig{K: 3, Seed: 77})
		if err != nil {
			return core.Objective{}, err
		}
		return core.MLTarget(m), nil
	default:
		return core.Objective{}, fmt.Errorf("unknown target %q (want ratio|throughput|sum|max|ml|kmeans)", target)
	}
}

func parseNetwork(name string) (sim.Bandwidth, error) {
	switch strings.ToLower(name) {
	case "2g":
		return sim.Net2G, nil
	case "3g":
		return sim.Net3G, nil
	case "4g":
		return sim.Net4G, nil
	case "5g":
		return sim.Net5G, nil
	default:
		return 0, fmt.Errorf("unknown network %q (want 2g|3g|4g|5g)", name)
	}
}

func runOnline(cfg core.Config, stream *datasets.CBFStream, segments int, verbose bool) {
	eng, err := core.NewOnlineEngine(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("online mode: target compression ratio %.4f\n", eng.TargetRatio())
	segs := make([]core.LabeledSegment, segments)
	for i := range segs {
		series, label := stream.Next()
		segs[i] = core.LabeledSegment{Values: series, Label: label}
	}
	results, err := core.RunOnlineSegments(eng, segs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if verbose {
		for i, res := range results {
			fmt.Printf("seg %4d  codec=%-10s lossy=%-5v ratio=%.3f reward=%.3f loss=%.3f\n",
				i, res.Codec, res.Lossy, res.Ratio, res.Reward, res.AccuracyLoss)
		}
	}
	st := eng.Stats()
	fmt.Printf("\nsegments: %d (lossless %d, lossy %d)\n", st.Segments, st.LosslessSegments, st.LossySegments)
	fmt.Printf("overall ratio: %.4f   mean accuracy loss: %.4f\n", st.OverallRatio(), st.MeanAccuracyLoss())
	fmt.Printf("bandwidth violations: %d\n", st.BandwidthViolations)
	if cfg.Deadline > 0 {
		fmt.Printf("deadline: rejects %d   fallbacks %d   misses %d   violations %d\n",
			st.DeadlineRejects, st.DeadlineFallbacks, st.DeadlineMisses, st.DeadlineViolations)
	}
	printUse("codec use", st.CodecUse)
	if tr := eng.Quality(); tr != nil {
		q := tr.Snapshot()
		fmt.Printf("decision quality: cumulative regret %.4f over %d samples (mean %.4f, windowed %.4f)\n",
			q.CumulativeRegret, q.Samples, q.MeanRegret, q.WindowedRegret)
		fmt.Printf("  optimal-arm rate %.2f   arm switches %d   held %q for %d decisions\n",
			q.OptimalRate, q.ArmSwitches, q.HeldCodec, q.SinceSwitch)
	}
}

func runOffline(cfg core.Config, stream *datasets.CBFStream, segments int, verbose bool) {
	eng, err := core.NewOfflineEngine(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("offline mode: budget %d bytes, threshold %.2f\n", cfg.StorageBytes, eng.Storage().Threshold())
	for i := 0; i < segments; i++ {
		series, label := stream.Next()
		if err := eng.Ingest(series, label); err != nil {
			fmt.Fprintf(os.Stderr, "segment %d: %v\n", i, err)
			os.Exit(1)
		}
		if verbose && (i+1)%20 == 0 {
			s := eng.Snapshot()
			fmt.Printf("t=%.2fs  space=%.2f  accuracy loss=%.4f  recodes=%d\n",
				s.Seconds, s.SpaceUtilization, s.MeanAccuracyLoss, eng.Stats().Recodes)
		}
	}
	st := eng.Stats()
	final := eng.Snapshot()
	fmt.Printf("\ningested %d segments in %.2fs virtual time\n", st.SegmentsIngested, final.Seconds)
	fmt.Printf("space usage: %.2f%%   mean accuracy loss: %.4f\n", 100*final.SpaceUtilization, final.MeanAccuracyLoss)
	fmt.Printf("recodes: %d (virtual %d, fallbacks %d, skips %d)\n",
		st.Recodes, st.VirtualRecodes, st.Fallbacks, st.RecodeSkips)
	printUse("lossless use", st.LosslessUse)
	printUse("lossy use", st.LossyUse)
}

func printUse(title string, use map[string]int) {
	names := make([]string, 0, len(use))
	for n := range use {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return use[names[a]] > use[names[b]] })
	fmt.Printf("%s:", title)
	for _, n := range names {
		fmt.Printf("  %s=%d", n, use[n])
	}
	fmt.Println()
}
