package experiments

import (
	"sync"
	"time"

	"repro/internal/core"
)

// pipelineThroughput measures points/second of online selection on
// pre-generated CBF segments with workers share-nothing engines, the
// paper's §V-C configuration: each goroutine owns one engine — its own
// registry, bandit state and seed — and processes every workers-th
// segment on it.
func pipelineThroughput(workers, segments int) float64 {
	workers = max(workers, 1)
	engines := make([]*core.OnlineEngine, workers)
	for i := range engines {
		eng, err := core.NewOnlineEngine(core.Config{
			TargetRatioOverride: 0.5,
			Objective:           core.SingleTarget(core.TargetRatio),
			Seed:                21 + int64(i)*1000,
		})
		if err != nil {
			panic(err)
		}
		engines[i] = eng
	}
	stream := cbfStreamSegments(segments, 22)
	var points int
	for _, seg := range stream {
		points += len(seg.values)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := i; j < len(stream); j += workers {
				if _, _, err := eng.Process(stream[j].values, stream[j].label); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	dur := time.Since(start).Seconds()
	if dur <= 0 {
		dur = 1e-9
	}
	return float64(points) / dur
}
