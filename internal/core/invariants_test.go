package core

import (
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

// Randomized operation sequences against the offline engine, checking the
// structural invariants after every step:
//
//  1. storage accounting equals the pool's actual byte total;
//  2. usage never exceeds capacity;
//  3. every stored segment decodes to its original length;
//  4. the segment count equals ingested − drained.
func TestOfflineEngineInvariantsUnderRandomOps(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		e, err := NewOfflineEngine(Config{
			StorageBytes: 40 << 10,
			Objective:    AggTarget(query.Sum),
			Seed:         seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: seed + 100})
		ingested, drained := 0, 0

		check := func(step int, op string) {
			t.Helper()
			if got, want := e.Storage().Used(), storedBytes(e); got != want {
				t.Fatalf("seed %d step %d (%s): storage %d != stored bytes %d", seed, step, op, got, want)
			}
			if e.Storage().Used() > e.Storage().Capacity() {
				t.Fatalf("seed %d step %d (%s): over capacity", seed, step, op)
			}
			if e.Segments() != ingested-drained {
				t.Fatalf("seed %d step %d (%s): segments %d != %d-%d", seed, step, op, e.Segments(), ingested, drained)
			}
		}

		for step := 0; step < 200; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // ingest (most common)
				series, label := stream.Next()
				if err := e.Ingest(series, label); err != nil {
					t.Fatalf("seed %d step %d: ingest: %v", seed, step, err)
				}
				ingested++
				check(step, "ingest")
			case 6, 7: // query random segment
				if ingested > drained {
					id := uint64(rng.Intn(ingested))
					if _, err := e.QuerySegment(id); err == nil {
						check(step, "query")
					}
				}
			case 8: // aggregate query
				if ingested > drained {
					if _, err := e.Query(query.Min); err != nil {
						t.Fatalf("seed %d step %d: query: %v", seed, step, err)
					}
					check(step, "agg")
				}
			case 9: // partial drain
				rep := drain(t, e, sim.Bandwidth(4096), 1) // 4 KiB window
				drained += rep.SegmentsSent
				check(step, "drain")
			}
		}

		// Final decode sweep.
		e.EachEntry(func(en *store.Entry) {
			vals, err := e.reg.Decompress(en.Enc)
			if err != nil {
				t.Fatalf("seed %d: segment %d broken: %v", seed, en.ID, err)
			}
			if len(vals) != en.Enc.N {
				t.Fatalf("seed %d: segment %d length %d != %d", seed, en.ID, len(vals), en.Enc.N)
			}
		})
	}
}
