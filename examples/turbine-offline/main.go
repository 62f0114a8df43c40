// Wind-turbine offline scenario (paper §I, §IV-C2, Figs 12–13): a turbine
// gateway loses its uplink for hours at a time. It must keep ingesting
// high-frequency sensor data inside a fixed storage budget, evolving old
// segments to progressively more aggressive compression while preserving
// the clustering workload that drives condition monitoring.
//
// Recoding order follows the informativeness policy (paper §IV-B2): a
// periodic alarm query over the vibration peaks reports each segment's
// qualified-entry ratio, and the segments that contribute least are
// recoded first. At the end a dashboard reads the latest window, and when
// the uplink returns for a second the oldest segments are offloaded
// (Drain), freeing their flash.
//
// Run with: go run ./examples/turbine-offline
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

// peak is the alarm predicate: a vibration reading above 2, inside a CBF
// event (cylinder, bell and funnel all rise to about 6) rather than in the
// unit noise around 0.
func peak(v float64) bool { return v > 2 }

func main() {
	// The condition-monitoring model: KMeans over vibration signatures,
	// trained centrally and frozen.
	X, _ := datasets.CBF(240, datasets.CBFConfig{Seed: 3})
	km, err := ml.FitKMeans(X, ml.KMeansConfig{K: 3, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	// 64 KiB of flash for ~400 KiB of incoming data: a 6:1 over-ingest.
	engine, err := core.NewOfflineEngine(core.Config{
		StorageBytes:     64 << 10,
		StorageThreshold: 0.8, // recode when 80% full (paper default θ)
		IngestRate:       200_000,
		Objective:        core.MLTarget(km),
		Policy:           store.NewInformativeness(),
		Seed:             4,
	})
	if err != nil {
		log.Fatal(err)
	}

	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 5})
	for i := 0; i < 400; i++ {
		series, label := stream.Next()
		if err := engine.Ingest(series, label); err != nil {
			log.Fatalf("segment %d: %v", i, err)
		}
		if (i+1)%40 == 0 {
			// The alarm query: its qualified-entry ratios steer recoding.
			if _, err := engine.QueryFiltered(query.Avg, peak); err != nil {
				log.Fatal(err)
			}
		}
		if (i+1)%80 == 0 {
			s := engine.Snapshot()
			fmt.Printf("t=%5.2fs  space %5.1f%%  clustering accuracy loss %.4f  recodes %d\n",
				s.Seconds, 100*s.SpaceUtilization, s.MeanAccuracyLoss, engine.Stats().Recodes)
		}
	}

	st := engine.Stats()
	fmt.Printf("\nstored %d segments in %d bytes (budget %d)\n",
		engine.Segments(), engine.Storage().Used(), engine.Storage().Capacity())
	fmt.Printf("recodes: %d (virtual-decompression %d, RRD fallbacks %d)\n",
		st.Recodes, st.VirtualRecodes, st.Fallbacks)
	fmt.Println("lossy codec selections by the per-ratio-range bandits:")
	for name, n := range st.LossyUse {
		fmt.Printf("  %-10s %d\n", name, n)
	}

	// The data is still queryable after hours offline.
	maxV, err := engine.Query(query.Max)
	if err != nil {
		log.Fatal(err)
	}
	avgV, err := engine.Query(query.Avg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naggregates over all stored (mostly recoded) data: max=%.3f avg=%.3f\n", maxV, avgV)
	peakAvg, err := engine.QueryFiltered(query.Avg, peak)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("filtered query, mean of the peaks above 2: %.3f\n", peakAvg)
	now := engine.Snapshot().Seconds
	recentMax, err := engine.QueryRange(query.Max, 0.75*now, now)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range query, max over the last quarter (t=%.2fs to %.2fs): %.3f\n", 0.75*now, now, recentMax)

	// The uplink returns for one second at 2G speed: offload the oldest
	// segments and free their flash for the next offline stretch.
	rep, err := engine.Drain(sim.Net2G, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndrain over %v for 1s: sent %d segments (%d bytes), %d segments (%d bytes) stay stored\n",
		sim.Net2G, rep.SegmentsSent, rep.BytesSent, rep.SegmentsLeft, rep.BytesLeft)
}
