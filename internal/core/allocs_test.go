package core

import (
	"testing"

	"repro/internal/compress"
)

// Steady-state allocation pin for the online evaluator loop. With the
// codec hot paths allocation-free (internal/compress TestAllocs*), the
// remaining per-segment garbage came from the decision loop itself:
// trial encode buffers, lossy decode slices, arm masks and the bandit's
// candidate lists. All of those now recycle through the trial pools and
// engine/policy scratch, so a caller that hands the winning encoding
// back via RecycleEncoded should see an (amortized) allocation-free
// segment loop.
//
// The budget is not zero: sync.Pool contents may be reclaimed by a GC
// mid-measurement and refilled, and testing.AllocsPerRun averages those
// refills in. Anything persistently above the budget means a buffer
// stopped recycling — exactly the regression this test exists to catch.
const onlineLoopAllocBudget = 3.0

func TestAllocsOnlineEvaluatorLoop(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		// Target 1 keeps every segment in the lossless phase, the loop the
		// zero-alloc pass optimizes; the four bit-kernel arms encode
		// without allocating, so the budget measures the loop alone.
		TargetRatioOverride: 1,
		Objective:           SingleTarget(TargetRatio),
		LosslessArms:        []string{"gorilla", "chimp", "sprintz", "buff"},
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A few distinct segments so the loop re-sizes buffers like a real
	// stream would, without any per-iteration generator allocations.
	segs := make([][]float64, 4)
	for s := range segs {
		seg := make([]float64, 128)
		for i := range seg {
			switch {
			case i%5 == 2:
				seg[i] = seg[i-1]
			default:
				seg[i] = float64((i*(s+3))%23)/8 + float64(i)/511
			}
		}
		segs[s] = seg
	}

	step := 0
	run := func() {
		_, enc, err := eng.Process(segs[step%len(segs)], step%2)
		if err != nil {
			t.Fatal(err)
		}
		// Nothing retains enc past this iteration; hand the buffer back.
		RecycleEncoded(enc)
		step++
	}

	// Warm-up: size the pools, converge the bandit, populate stats keys.
	for i := 0; i < 400; i++ {
		run()
	}

	if got := testing.AllocsPerRun(300, run); got > onlineLoopAllocBudget {
		t.Errorf("online evaluator loop allocates %v/op steady-state, budget %v", got, onlineLoopAllocBudget)
	}
}

// TestRecycledBuffersStayIndependent pins the aliasing contract around
// RecycleEncoded: an encoding cloned before recycling must stay intact
// while later segments churn through the recycled buffers.
func TestRecycledBuffersStayIndependent(t *testing.T) {
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 1,
		Objective:           SingleTarget(TargetRatio),
		LosslessArms:        []string{"gorilla", "chimp", "sprintz", "buff"},
		Seed:                11,
	})
	if err != nil {
		t.Fatal(err)
	}
	seg := make([]float64, 128)
	for i := range seg {
		seg[i] = float64(i%19)/4 - 1.25
	}
	_, enc, err := eng.Process(seg, 0)
	if err != nil {
		t.Fatal(err)
	}
	kept := compress.Encoded{Codec: enc.Codec, Data: append([]byte(nil), enc.Data...), N: enc.N}
	want, err := eng.reg.Decompress(kept)
	if err != nil {
		t.Fatal(err)
	}
	RecycleEncoded(enc)
	for i := 0; i < 64; i++ {
		seg2 := make([]float64, 128)
		for j := range seg2 {
			seg2[j] = float64((j*(i+2))%31) / 8
		}
		if _, enc2, err := eng.Process(seg2, 1); err != nil {
			t.Fatal(err)
		} else {
			RecycleEncoded(enc2)
		}
	}
	got, err := eng.reg.Decompress(kept)
	if err != nil {
		t.Fatalf("cloned encoding corrupted after recycling: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d drifted after buffer recycling: %g != %g", i, got[i], want[i])
		}
	}
}
