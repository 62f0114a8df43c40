// Intermittent-link scenario (paper Fig 1, §IV-B): a mining-site gateway
// alternates between connectivity windows and blackouts. The device runs
// AdaEdge online selection and ships every segment through a
// ResilientUplink: frames spool in a bounded on-device queue, survive
// injected link outages and connection resets, and are retransmitted
// until the collector's cumulative ACK covers them — at-least-once on the
// wire, exactly-once at the cloud sink. When the blackout backlog pushes
// the spool past its high-water mark, the pressure hook retargets the
// engine to half the link, so segments get smaller instead of the queue
// overflowing (graceful degradation), and back to the full link as the
// spool drains.
//
// Run with: go run ./examples/intermittent-link
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/transport"
)

func main() {
	// Cloud side: a collector with per-device dedup.
	reg := compress.DefaultRegistry(4)
	var mu sync.Mutex
	var points int
	collector := transport.NewCollector(reg, func(f transport.Frame, values []float64) {
		mu.Lock()
		points += len(values)
		mu.Unlock()
	})
	addr, err := collector.Serve("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer collector.Close()

	// The site gets 100 ms of 4G every 250 ms; the rest is blackout. The
	// fault plan meters virtual time by bytes written, so outages tear
	// frames mid-write exactly where the schedule says.
	link := sim.NewLink(
		sim.LinkPhase{Seconds: 0.100, Bandwidth: sim.Net4G},
		sim.LinkPhase{Seconds: 0.150, Bandwidth: 0},
	)
	plan := sim.NewFaultPlan(link, 50_000, 0.01)

	// Edge side: online engine plus resilient uplink, wired together by
	// the spool-pressure → Retarget hook. A 1 M points/s sensor with a
	// 2.4 MB/s share of the link compresses to R = B/(64×I) = 0.3.
	const bw = sim.Bandwidth(2.4e6)
	engine, err := core.NewOnlineEngine(core.Config{
		IngestRate: 1e6,
		Bandwidth:  bw,
		Objective:  core.AggTarget(query.Sum),
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	var pressureEvents int
	uplink, err := transport.DialResilient(transport.ResilientConfig{
		Addr:          addr.String(),
		DeviceID:      1,
		Seed:          1,
		SpoolSegments: 128,
		HighWater:     0.5,
		BackoffBase:   500 * time.Microsecond,
		BackoffMax:    5 * time.Millisecond,
		OnPressure: func(over bool) {
			pressureEvents++
			if over {
				engine.Retarget(bw / 2) // spool deep: budget half the link
				fmt.Printf("spool over high water → target %.3f\n", engine.TargetRatio())
			} else {
				engine.Retarget(bw) // drained: the whole link again
				fmt.Printf("spool drained → target %.3f\n", engine.TargetRatio())
			}
		},
		Dialer: func(a string, timeout time.Duration) (net.Conn, error) {
			return plan.Dial(func() (net.Conn, error) {
				return net.DialTimeout("tcp", a, timeout)
			})
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 9})
	shed := 0
	const segments = 400
	for i := 0; i < segments; i++ {
		series, label := stream.Next()
		res, enc, err := engine.Process(series, label)
		if err != nil {
			log.Fatalf("segment %d: %v", i, err)
		}
		if err := uplink.Send(transport.Frame{ID: res.SegmentID, Label: label, Enc: enc}); err != nil {
			shed++ // spool full: the bound sheds rather than blocking ingest
		}
		time.Sleep(500 * time.Microsecond) // sensor pacing: ~2k segments/s
	}
	if err := uplink.WaitDrain(30 * time.Second); err != nil {
		log.Fatal(err)
	}
	st := uplink.Stats()
	if err := uplink.Close(); err != nil {
		log.Fatal(err)
	}

	dials, dialFails := plan.Dials()
	resets, stalls := plan.Injected()
	est := engine.Stats()
	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("\nedge: %d segments at overall ratio %.3f\n", est.Segments, est.OverallRatio())
	fmt.Printf("uplink: ack watermark %d, %d transfers broken mid-frame and retried, %d shed\n",
		st.Acked, st.SendFailures, shed)
	fmt.Printf("link: %d dials (%d during blackout), %d injected resets, %d stalls, %d pressure transitions\n",
		dials, dialFails, resets, stalls, pressureEvents)
	fmt.Printf("cloud: %d unique frames (%d duplicate deliveries dropped), %d points reconstructed\n",
		collector.Frames(), collector.Duplicates(), points)
	if collector.Frames() != segments-shed {
		log.Fatalf("exactly-once violated: %d delivered, want %d", collector.Frames(), segments-shed)
	}
}
