// Data-shift scenario (paper §V-C, Fig 15): the signal's character changes
// mid-stream — the first half is high-entropy CBF data, the second half
// low-entropy plateau data. A static codec choice is wrong for one of the
// phases; AdaEdge's nonstationary bandit (constant step size 0.5) tracks
// the shift and re-converges to the new optimum.
//
// Run with: go run ./examples/datashift
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/bandit"
	"repro/internal/compress"
	"repro/internal/datasets"
)

func main() {
	const totalSeries = 400
	reg := compress.DefaultRegistry(4)
	names := reg.Lossless()

	// The paper's Fig 15 setup: optimistic ε-greedy, ε = 0.1, step = 0.5.
	policy := bandit.NewEpsilonGreedy(len(names), bandit.Config{
		Epsilon:  0.1,
		Optimism: 1,
		Step:     0.5,
		Seed:     6,
	})

	stream := datasets.NewShiftStream(totalSeries, 128, 7)
	phaseUse := [2]map[string]int{{}, {}}
	var phaseBytes [2]int64
	for !stream.Done() {
		phase := stream.Phase()
		series, _ := stream.Next()
		arm := policy.Select(nil)
		codec, _ := reg.Lookup(names[arm])
		enc, err := compress.Compress(codec, series)
		if err != nil {
			log.Fatal(err)
		}
		ratio := enc.Ratio()
		if ratio > 1 {
			ratio = 1
		}
		policy.Update(arm, 1-ratio) // space-minimization reward
		phaseUse[phase][names[arm]]++
		phaseBytes[phase] += int64(enc.Size())
	}

	for phase, label := range []string{"high-entropy (CBF)", "low-entropy (plateaus)"} {
		fmt.Printf("phase %d — %s: %.1f KB total\n", phase+1, label, float64(phaseBytes[phase])/1024)
		type kv struct {
			name string
			n    int
		}
		var use []kv
		for name, n := range phaseUse[phase] {
			use = append(use, kv{name, n})
		}
		sort.Slice(use, func(a, b int) bool { return use[a].n > use[b].n })
		for _, u := range use {
			fmt.Printf("  %-10s %3d selections\n", u.name, u.n)
		}
	}
	fmt.Println("\nfinal bandit estimates (reward = 1 - compression ratio):")
	est := policy.Estimates()
	for i, name := range names {
		fmt.Printf("  %-10s %.3f\n", name, est[i])
	}
}
