package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

// ingestCountingCompactions ingests segments round-robin until the arena
// has been compacted `want` times, and fails after `limit` segments. A
// compaction is the one thing that shortens the arena: without one an
// Ingest only appends.
func ingestCountingCompactions(t *testing.T, e *OfflineEngine, segs []LabeledSegment, want, limit int) {
	t.Helper()
	compactions := 0
	for i := 0; compactions < want; i++ {
		if i == limit {
			t.Fatalf("%d compactions in %d segments, want %d", compactions, limit, want)
		}
		before := len(e.arena)
		s := segs[i%len(segs)]
		if err := e.Ingest(s.Values, s.Label); err != nil {
			t.Fatal(err)
		}
		if len(e.arena) < before {
			compactions++
		}
	}
}

// TestDrainedPayloadsOwnTheirBytes: a payload that leaves through Drain,
// with a sender or without, must not alias the arena. An uplink spool
// keeps a frame's payload until its ACK, and by then later Ingests have
// recoded victims in place and compacted the arena under it. Half an epoch
// leaves, a quarter through a capturing sender and a quarter without one;
// ingestion then runs on through two compactions, and every payload that
// left must still hold the bytes it was stored with.
func TestDrainedPayloadsOwnTheirBytes(t *testing.T) {
	const epoch = 1024
	segs := cbfSegments(t, 256, 11)
	e, err := NewOfflineEngine(Config{
		StorageBytes: epoch * 140,
		Objective:    AggTarget(query.Sum),
		CodecCost:    DefaultCodecCost,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < epoch; i++ {
		s := segs[i%len(segs)]
		if err := e.Ingest(s.Values, s.Label); err != nil {
			t.Fatal(err)
		}
	}
	stored := map[uint64][]byte{}
	e.EachEntry(func(en *store.Entry) { stored[en.ID] = bytes.Clone(en.Enc.Data) })

	quarter := sim.Bandwidth(e.Storage().Used() / 4)
	var shipped []store.Entry
	if _, err := e.Drain(quarter, 1, capture(&shipped, -1, nil)); err != nil {
		t.Fatal(err)
	}
	rep := drain(t, e, quarter, 1)
	if len(shipped) == 0 || rep.SegmentsSent == 0 {
		t.Fatalf("drained %d shipped and %d sent segments", len(shipped), rep.SegmentsSent)
	}
	ingestCountingCompactions(t, e, segs, 2, 4*epoch)

	for _, en := range shipped {
		if !bytes.Equal(en.Enc.Data, stored[en.ID]) {
			t.Fatalf("shipped segment %d was overwritten after it left", en.ID)
		}
	}
	for _, en := range rep.Sent {
		if !bytes.Equal(en.Enc.Data, stored[en.ID]) {
			t.Fatalf("Drain's segment %d was overwritten after it was sent", en.ID)
		}
	}
}

// shadowPayload is the property test's record of one stored payload.
type shadowPayload struct {
	data  []byte
	level int32
}

// TestArenaProperty drives seeded random sequences of Ingest, QuerySegment
// on a hot set (under the informativeness policy, so recency stops
// following ingest order), Drain and SaveTo → ResumeOfflineEngine, and
// after every step holds the engine to a shadow copy of every stored
// payload: a segment no recode touched keeps its bytes wherever compaction
// moved them, a recoded one shrank, a lossless one decodes to its raw
// segment, every payload is capped at its length, a drained payload keeps
// its bytes for good, and the arena stays within StorageBytes.
func TestArenaProperty(t *testing.T) {
	const budget = 300 * 140
	segs := cbfSegments(t, 64, 5)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		newConfig := func() Config {
			return Config{
				StorageBytes: budget,
				Objective:    AggTarget(query.Sum),
				CodecCost:    DefaultCodecCost,
				Policy:       store.NewInformativeness(),
				Seed:         seed,
			}
		}
		e, err := NewOfflineEngine(newConfig())
		if err != nil {
			t.Fatal(err)
		}
		shadow := map[uint64]shadowPayload{}
		raw := map[uint64][]float64{}
		var left []store.Entry // every payload drained so far
		var leftWant [][]byte
		var compactions, recodes, queries, drains, resumes int
		for step := 0; step < 1200; step++ {
			drained := map[uint64]bool{}
			arenaLen := len(e.arena)
			switch r := rng.Intn(100); {
			case r < 80:
				s := segs[rng.Intn(len(segs))]
				raw[e.nextID] = s.Values
				if err := e.Ingest(s.Values, s.Label); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if len(e.arena) < arenaLen {
					compactions++
				}
			case r < 94:
				// The hot set: every stored id divisible by 8.
				var hot []uint64
				for id := range shadow {
					if id%8 == 0 {
						hot = append(hot, id)
					}
				}
				if len(hot) == 0 {
					continue
				}
				id := hot[rng.Intn(len(hot))]
				got, err := e.QuerySegment(id)
				if err != nil || len(got) != len(raw[id]) {
					t.Fatalf("seed %d step %d: QuerySegment(%d) = %d values, %v", seed, step, id, len(got), err)
				}
				queries++
			case r < 99:
				rep := drain(t, e, sim.Bandwidth(rng.Int63n(e.Storage().Used()/4+1)), 1)
				for _, en := range rep.Sent {
					s, ok := shadow[en.ID]
					if !ok || !bytes.Equal(en.Enc.Data, s.data) || en.Level != s.level {
						t.Fatalf("seed %d step %d: drained segment %d is not what was stored", seed, step, en.ID)
					}
					drained[en.ID] = true
					left, leftWant = append(left, en), append(leftWant, s.data)
				}
				drains++
			default:
				var dump bytes.Buffer
				if _, err := e.SaveTo(&dump); err != nil {
					t.Fatal(err)
				}
				if e, err = ResumeOfflineEngine(newConfig(), &dump); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				resumes++
			}

			seen := 0
			e.EachEntry(func(en *store.Entry) {
				seen++
				if len(en.Enc.Data) != cap(en.Enc.Data) {
					t.Fatalf("seed %d step %d: segment %d's payload has %d bytes of capacity past its %d", seed, step, en.ID, cap(en.Enc.Data)-len(en.Enc.Data), len(en.Enc.Data))
				}
				s, ok := shadow[en.ID]
				switch {
				case ok && en.Level == s.level:
					if !bytes.Equal(en.Enc.Data, s.data) {
						t.Fatalf("seed %d step %d: segment %d changed without a recode", seed, step, en.ID)
					}
					return
				case ok && (en.Level < s.level || en.Enc.Size() >= len(s.data)):
					t.Fatalf("seed %d step %d: segment %d went from level %d, %d bytes to level %d, %d bytes", seed, step, en.ID, s.level, len(s.data), en.Level, en.Enc.Size())
				case !ok && en.Level != 0:
					t.Fatalf("seed %d step %d: new segment %d at level %d", seed, step, en.ID, en.Level)
				case ok:
					recodes++
				}
				// A new or recoded payload: it must decode, exactly when
				// lossless.
				got, err := e.reg.Decompress(en.Enc)
				if err != nil || len(got) != len(raw[en.ID]) {
					t.Fatalf("seed %d step %d: segment %d decodes to %d values, %v", seed, step, en.ID, len(got), err)
				}
				for i := range got {
					if en.Lossless && got[i] != raw[en.ID][i] {
						t.Fatalf("seed %d step %d: lossless segment %d differs at %d", seed, step, en.ID, i)
					}
				}
				shadow[en.ID] = shadowPayload{bytes.Clone(en.Enc.Data), en.Level}
			})
			for id := range drained {
				delete(shadow, id)
			}
			if seen != len(shadow) {
				t.Fatalf("seed %d step %d: %d segments stored, the shadow has %d", seed, step, seen, len(shadow))
			}
			if cap(e.arena) > budget {
				t.Fatalf("seed %d step %d: the arena holds %d bytes, StorageBytes is %d", seed, step, cap(e.arena), budget)
			}
			for i, en := range left {
				if !bytes.Equal(en.Enc.Data, leftWant[i]) {
					t.Fatalf("seed %d step %d: drained segment %d was overwritten", seed, step, en.ID)
				}
			}
		}
		if compactions < 10 || recodes < 100 || queries == 0 || drains == 0 || resumes == 0 {
			t.Fatalf("seed %d: %d compactions, %d recodes, %d queries, %d drains, %d resumes: the sequence no longer exercises the arena", seed, compactions, recodes, queries, drains, resumes)
		}
		t.Logf("seed %d: %d compactions, %d recodes, %d queries, %d drains, %d resumes, %d segments stored", seed, compactions, recodes, queries, drains, resumes, len(shadow))
	}
}

// TestArenaGrowthSteps: over an offline_recode epoch the arena takes its
// first capacity from the steady state halved until it fits arenaFirst,
// then doubles onto the steady state itself: five allocations, the last
// of them the arena the epoch ends with. Doubling from the first payload's
// size took a dozen, and doubling from a power of two ended with a short
// last step that cost a whole extra arena.
func TestArenaGrowthSteps(t *testing.T) {
	e := offlineRecodeEngine(t, nil)
	budget := int(e.storage.Capacity())
	steady := int(e.cfg.StorageThreshold*float64(budget)) + budget/8
	var caps []int
	for i, s := range cbfSegments(t, offlineRecodeEpoch, 11) {
		if err := e.Ingest(s.Values, s.Label); err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if c := cap(e.arena); len(caps) == 0 || c != caps[len(caps)-1] {
			caps = append(caps, c)
		}
	}
	if len(caps) != 5 || caps[0] > arenaFirst || caps[len(caps)-1] != steady {
		t.Fatalf("the arena took capacities %v: want five, the first within %d and the last the steady state %d", caps, arenaFirst, steady)
	}
	for i := 1; i < len(caps); i++ {
		if caps[i] != 2*caps[i-1] {
			t.Fatalf("the arena took capacities %v: want each twice the last", caps)
		}
	}
}
