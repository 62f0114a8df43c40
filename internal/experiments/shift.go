package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/bandit"
	"repro/internal/compress"
	"repro/internal/datasets"
)

// ShiftRun is one method's outcome on the Fig 15 data-shift workload: a
// two-phase stream (high-entropy CBF, then low-entropy plateaus) with a
// space-minimization target.
type ShiftRun struct {
	Method string
	// TotalBytes is the cumulative compressed size over the stream.
	TotalBytes int64
	// Phase1Use / Phase2Use count codec selections per phase (MAB runs).
	Phase1Use, Phase2Use map[string]int
	// Phase1Top / Phase2Top name the dominant codec per phase.
	Phase1Top, Phase2Top string
}

// Fig15aBaselines runs every lossless candidate as a fixed selection over
// the shift stream, reporting total compressed size — the "baseline
// candidates" panel.
func Fig15aBaselines(w io.Writer, totalSeries int, seed int64) []ShiftRun {
	if totalSeries <= 0 {
		totalSeries = 200
	}
	reg := compress.DefaultRegistry(cbfPrecision)
	var runs []ShiftRun
	for _, name := range reg.Lossless() {
		codec, _ := reg.Lookup(name)
		stream := datasets.NewShiftStream(totalSeries, 128, seed)
		var total int64
		ok := true
		for !stream.Done() {
			series, _ := stream.Next()
			enc, err := compress.Compress(codec, series)
			if err != nil {
				ok = false
				break
			}
			total += int64(enc.Size())
		}
		if !ok {
			continue
		}
		runs = append(runs, ShiftRun{Method: name, TotalBytes: total})
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].TotalBytes < runs[b].TotalBytes })
	if w != nil {
		fmt.Fprintln(w, "Fig 15a: fixed lossless candidates on the entropy-shift stream (total compressed KB)")
		for _, r := range runs {
			fmt.Fprintf(w, "  %-10s %8.1f KB\n", r.Method, float64(r.TotalBytes)/1024)
		}
	}
	return runs
}

// Fig15bMAB runs AdaEdge's lossless selection with ε ∈ {0.05, 0.1, 0.2}
// and nonstationary step 0.5 over the shift stream. The paper's finding:
// the bandit starts on Sprintz for the CBF phase and switches to gzip or
// zlib-9 for the low-entropy phase, regardless of ε.
func Fig15bMAB(w io.Writer, totalSeries int, seed int64, epsilons []float64) []ShiftRun {
	if totalSeries <= 0 {
		totalSeries = 200
	}
	if len(epsilons) == 0 {
		epsilons = []float64{0.05, 0.1, 0.2}
	}
	var runs []ShiftRun
	for _, eps := range epsilons {
		run := runShiftMAB(totalSeries, seed, bandit.Config{Epsilon: eps, Optimism: 1, Step: 0.5, Seed: seed + int64(eps*1000)})
		run.Method = fmt.Sprintf("mab eps=%.2f", eps)
		runs = append(runs, run)
	}
	if w != nil {
		fmt.Fprintln(w, "Fig 15b: MAB selection on the entropy-shift stream (step=0.5)")
		for _, r := range runs {
			fmt.Fprintf(w, "  %-14s total %8.1f KB  phase1 top: %-8s phase2 top: %-8s\n",
				r.Method, float64(r.TotalBytes)/1024, r.Phase1Top, r.Phase2Top)
		}
	}
	return runs
}

// runShiftMAB drives the lossless bandit directly over the two-phase
// stream with a space-minimization reward, mirroring the engine's lossless
// path but with per-phase accounting.
func runShiftMAB(totalSeries int, seed int64, bc bandit.Config) ShiftRun {
	reg := compress.DefaultRegistry(cbfPrecision)
	names := reg.Lossless()
	pol := bandit.NewEpsilonGreedy(len(names), bc)
	stream := datasets.NewShiftStream(totalSeries, 128, seed)
	run := ShiftRun{
		Phase1Use: make(map[string]int),
		Phase2Use: make(map[string]int),
	}
	for !stream.Done() {
		phase := stream.Phase()
		series, _ := stream.Next()
		arm := pol.Select(nil)
		codec, _ := reg.Lookup(names[arm])
		enc, err := compress.Compress(codec, series)
		if err != nil {
			pol.Update(arm, 0)
			continue
		}
		ratio := enc.Ratio()
		if ratio > 1 {
			ratio = 1
		}
		pol.Update(arm, 1-ratio)
		run.TotalBytes += int64(enc.Size())
		if phase == 0 {
			run.Phase1Use[names[arm]]++
		} else {
			run.Phase2Use[names[arm]]++
		}
	}
	run.Phase1Top = topKey(run.Phase1Use)
	run.Phase2Top = topKey(run.Phase2Use)
	return run
}

func topKey(m map[string]int) string {
	best, bestN := "", -1
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if m[k] > bestN {
			best, bestN = k, m[k]
		}
	}
	return best
}

// ScaleRow is one worker-count measurement for the §V-C scalability claim.
type ScaleRow struct {
	Workers   int
	PtsPerSec float64
}

// Scalability measures pipeline throughput (points/second of online
// selection) as workers grow, backing the paper's "8 M pts/s with 8
// threads" claim in shape: throughput must grow with workers.
func Scalability(w io.Writer, workerCounts []int, segmentsPerWorker int) []ScaleRow {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	if segmentsPerWorker <= 0 {
		segmentsPerWorker = 100
	}
	var rows []ScaleRow
	for _, workers := range workerCounts {
		rows = append(rows, ScaleRow{Workers: workers, PtsPerSec: pipelineThroughput(workers, segmentsPerWorker*workers)})
	}
	if w != nil {
		fmt.Fprintln(w, "Scalability (§V-C): online selection throughput vs workers")
		for _, r := range rows {
			fmt.Fprintf(w, "  %2d workers: %8.2f M pts/s\n", r.Workers, r.PtsPerSec/1e6)
		}
	}
	return rows
}
