// Additional ablation and micro-benchmarks covering the extension
// components: direct (in-situ) aggregation, the informativeness policy,
// UCB-vs-ε-greedy selection, and the cited-system codecs.
package repro

import (
	"testing"

	"repro/internal/bandit"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/store"
)

// Direct vs decompress-then-aggregate: the in-situ operators should win by
// a wide margin on summary-style representations.
func BenchmarkDirectVsDecompressedAggregation(b *testing.B) {
	X, _ := datasets.CBF(1, datasets.CBFConfig{Seed: 70})
	s := compress.NewSummary()
	enc, err := s.CompressRatio(X[0], 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct-sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.SumEncoded(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decompress-sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vals, err := compress.Decompress(s, enc)
			if err != nil {
				b.Fatal(err)
			}
			var sum float64
			for _, v := range vals {
				sum += v
			}
			_ = sum
		}
	})
}

// Informativeness vs LRU under a filtered workload that cares about a
// value band: the informativeness policy should keep high-contribution
// segments at higher fidelity (fewer recodes on them).
func BenchmarkAblationInformativenessPolicy(b *testing.B) {
	obj := core.AggTarget(query.Avg)
	run := func(policy store.Policy) float64 {
		eng, err := core.NewOfflineEngine(core.Config{
			StorageBytes: 28 << 10,
			Objective:    obj,
			Policy:       policy,
			Seed:         71,
		})
		if err != nil {
			b.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 72})
		// inBand[id] is the share of segment id's raw values inside the
		// band. The engine keeps no raw; segment ids follow ingest order.
		var inBand []float64
		for i := 0; i < 150; i++ {
			series, label := stream.Next()
			n := 0
			for _, v := range series {
				if v > 3 {
					n++
				}
			}
			inBand = append(inBand, float64(n)/float64(len(series)))
			if err := eng.Ingest(series, label); err != nil {
				b.Fatal(err)
			}
			if i%10 == 9 {
				// The workload repeatedly asks about the active band.
				if _, err := eng.QueryFiltered(query.Avg, func(v float64) bool { return v > 3 }); err != nil {
					b.Fatal(err)
				}
			}
		}
		// Fidelity of the high-contribution segments: average recode
		// level weighted by each segment's in-band fraction.
		var weighted, weights float64
		eng.EachEntry(func(e *store.Entry) {
			w := inBand[e.ID]
			weighted += w * float64(e.Level)
			weights += w
		})
		if weights == 0 {
			b.Fatal("no stored segment has a value in the band: the ablation measures nothing")
		}
		return weighted / weights
	}
	var lru, info float64
	for i := 0; i < b.N; i++ {
		lru = run(store.NewLRU())
		info = run(store.NewInformativeness())
	}
	b.ReportMetric(lru, "lru-weighted-recode-level")
	b.ReportMetric(info, "informativeness-weighted-recode-level")
}

// UCB1 vs optimistic ε-greedy on the online ML workload.
func BenchmarkAblationUCBvsEpsilonGreedy(b *testing.B) {
	obj := core.AggTarget(query.Sum)
	run := func(useUCB bool) float64 {
		eng, err := core.NewOnlineEngine(core.Config{
			TargetRatioOverride: 0.1,
			Objective:           obj,
			UseUCB:              useUCB,
			Seed:                73,
		})
		if err != nil {
			b.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 74})
		for i := 0; i < 120; i++ {
			series, label := stream.Next()
			if _, _, err := eng.Process(series, label); err != nil {
				b.Fatal(err)
			}
		}
		return eng.Stats().MeanAccuracyLoss()
	}
	var eps, ucb float64
	for i := 0; i < b.N; i++ {
		eps = run(false)
		ucb = run(true)
	}
	b.ReportMetric(eps, "epsilon-greedy-loss")
	b.ReportMetric(ucb, "ucb1-loss")
}

// Gradient bandit as the lossy selector, against the default.
func BenchmarkAblationGradientBandit(b *testing.B) {
	probs := []float64{0.3, 0.9, 0.5, 0.2}
	run := func(mk func() bandit.Policy) float64 {
		p := mk()
		var total float64
		state := uint64(75)
		for i := 0; i < 2000; i++ {
			arm := p.Select(nil)
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			r := 0.0
			if float64(state%1000)/1000 < probs[arm] {
				r = 1
			}
			p.Update(arm, r)
			total += r
		}
		return total / 2000
	}
	var greedy, grad float64
	for i := 0; i < b.N; i++ {
		greedy = run(func() bandit.Policy {
			return bandit.NewEpsilonGreedy(len(probs), bandit.Config{Epsilon: 0.1, Optimism: 1, Seed: 76})
		})
		grad = run(func() bandit.Policy {
			return bandit.NewGradient(len(probs), bandit.Config{Step: 0.2, Seed: 76})
		})
	}
	b.ReportMetric(greedy, "eps-greedy-mean-reward")
	b.ReportMetric(grad, "gradient-mean-reward")
}

// Cited-system codecs end to end.
func BenchmarkCodecModelar(b *testing.B) { benchCodec(b, compress.NewModelar()) }
func BenchmarkCodecSummary(b *testing.B) { benchCodec(b, compress.NewSummary()) }
func BenchmarkCodecElf(b *testing.B)     { benchCodec(b, compress.NewElf(4)) }
