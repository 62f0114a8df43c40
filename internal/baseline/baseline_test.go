package baseline

import (
	"errors"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/sim"
)

func cbfSamples(n int, seed int64) [][]float64 {
	X, _ := datasets.CBF(n, datasets.CBFConfig{Seed: seed})
	return X
}

func TestCodecDBTrainsAndSelects(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	db := NewCodecDB(reg)
	if err := db.Train(cbfSamples(20, 1)); err != nil {
		t.Fatal(err)
	}
	samples := cbfSamples(5, 2)
	name := db.Select(samples[0])
	if _, ok := reg.Lookup(name); !ok {
		t.Fatalf("selected unknown codec %q", name)
	}
	// On CBF the winner should be a numeric codec, not a byte compressor.
	if name == "gzip" || name == "snappy" {
		t.Logf("note: CodecDB picked %s on CBF (unusual but not wrong)", name)
	}
	enc, err := db.Process(samples[0], 1.0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := reg.Decompress(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec {
		if dec[i] != samples[0][i] {
			t.Fatal("CodecDB output not lossless")
		}
	}
}

func TestCodecDBFailsWhenLosslessInfeasible(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	db := NewCodecDB(reg)
	if err := db.Train(cbfSamples(10, 3)); err != nil {
		t.Fatal(err)
	}
	sample := cbfSamples(1, 4)[0]
	if _, err := db.Process(sample, 0.05); !errors.Is(err, ErrLosslessInfeasible) {
		t.Fatalf("want ErrLosslessInfeasible at ratio 0.05, got %v", err)
	}
}

func TestCodecDBTrainErrors(t *testing.T) {
	db := NewCodecDB(compress.DefaultRegistry(4))
	if err := db.Train(nil); err == nil {
		t.Fatal("empty training should fail")
	}
	// Untrained Select still returns a valid codec.
	if db.Select(cbfSamples(1, 5)[0]) == "" {
		t.Fatal("untrained select returned empty name")
	}
}

func TestTVStoreCompressesAtAnyRatio(t *testing.T) {
	tv := NewTVStore()
	sample := cbfSamples(1, 6)[0]
	for _, r := range []float64{1.0, 0.5, 0.25, 0.1} {
		enc, err := tv.Process(sample, r)
		if err != nil {
			t.Fatalf("ratio %v: %v", r, err)
		}
		if r < 1 && enc.Ratio() > r*1.2 {
			t.Fatalf("ratio %v: achieved %v", r, enc.Ratio())
		}
	}
}

func TestFixedPairEngineUsesOnlyItsPair(t *testing.T) {
	pair := FixedPairConfig{Lossless: "sprintz", Lossy: "bufflossy"}
	if pair.Name() != "sprintz_bufflossy" {
		t.Fatalf("pair name = %q", pair.Name())
	}
	eng, err := NewFixedPairEngine(pair, core.Config{
		StorageBytes: 30 << 10,
		Objective:    core.SingleTarget(core.TargetRatio),
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 8})
	for i := 0; i < 120; i++ {
		series, label := stream.Next()
		if err := eng.Ingest(series, label); err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
	}
	st := eng.Stats()
	for name := range st.LosslessUse {
		if name != "sprintz" {
			t.Fatalf("unexpected lossless codec %q", name)
		}
	}
	for name := range st.LossyUse {
		if name != "bufflossy" && name != "rrdsample" { // rrdsample = engine fallback
			t.Fatalf("unexpected lossy codec %q", name)
		}
	}
	if st.Recodes == 0 {
		t.Fatal("expected recodes under a 30 KiB budget")
	}
}

func TestFixedPairGorillaStarvesRecoderBeforeSprintz(t *testing.T) {
	// The mechanism behind paper Fig 14: Gorilla's bit-serial decode makes
	// gorilla_* pairs starve the recoder. With the deterministic codec
	// cost model, the gorilla pair must blow the budget strictly earlier
	// than the sprintz pair (which should survive entirely).
	run := func(pair FixedPairConfig) (segments int, failed bool) {
		eng, err := NewFixedPairEngine(pair, core.Config{
			StorageBytes: 24 << 10,
			IngestRate:   1e6,
			RecodeBudget: true,
			CPUScale:     8,
			CodecCost:    core.DefaultCodecCost,
			Objective:    core.SingleTarget(core.TargetRatio),
			Seed:         9,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 10})
		for i := 0; i < 400; i++ {
			series, label := stream.Next()
			if err := eng.Ingest(series, label); err != nil {
				if !errors.Is(err, sim.ErrBudgetExceeded) {
					t.Fatalf("unexpected error: %v", err)
				}
				return i, true
			}
		}
		return 400, false
	}
	gorillaSegs, gorillaFailed := run(FixedPairConfig{Lossless: "gorilla", Lossy: "fft"})
	sprintzSegs, sprintzFailed := run(FixedPairConfig{Lossless: "sprintz", Lossy: "bufflossy"})
	if !gorillaFailed {
		t.Fatal("gorilla_fft should starve the recoder and fail")
	}
	if sprintzFailed {
		t.Fatalf("sprintz_bufflossy should survive, failed at segment %d", sprintzSegs)
	}
	if gorillaSegs >= sprintzSegs {
		t.Fatalf("gorilla_fft (%d) should fail before sprintz_bufflossy finishes (%d)", gorillaSegs, sprintzSegs)
	}
}
