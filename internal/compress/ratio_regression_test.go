package compress

import (
	"testing"

	"repro/internal/datasets"
)

// Ratio regression bands: each lossless codec's compression ratio on the
// canonical CBF workload must stay inside a recorded band. The bands are
// wide enough to absorb benign drift but catch algorithmic regressions
// (e.g. a broken predictor silently doubling Sprintz's output) that
// round-trip tests cannot see.
func TestLosslessRatioBandsOnCBF(t *testing.T) {
	X, _ := datasets.CBF(200, datasets.CBFConfig{Seed: 99})
	bands := map[string][2]float64{
		// name: {min plausible, max allowed} ratio on noisy 4-digit CBF.
		"gzip":    {0.60, 1.10},
		"snappy":  {0.70, 1.10},
		"zlib-1":  {0.60, 1.15},
		"zlib-6":  {0.60, 1.10},
		"zlib-9":  {0.60, 1.10},
		"dict":    {0.70, 1.40}, // high-cardinality data: dict expands
		"gorilla": {0.80, 1.15},
		"chimp":   {0.75, 1.10},
		"sprintz": {0.20, 0.45},
		"buff":    {0.20, 0.40},
		"elf":     {0.40, 0.85},
	}
	reg := DefaultRegistry(4)
	for _, name := range reg.Lossless() {
		band, ok := bands[name]
		if !ok {
			t.Fatalf("no band recorded for %s — add one", name)
		}
		codec, _ := reg.Lookup(name)
		var raw, comp int64
		for _, row := range X {
			enc, err := Compress(codec, row)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			raw += int64(8 * len(row))
			comp += int64(enc.Size())
		}
		ratio := float64(comp) / float64(raw)
		if ratio < band[0] || ratio > band[1] {
			t.Errorf("%s: CBF ratio %.3f outside band [%.2f, %.2f]", name, ratio, band[0], band[1])
		}
	}
}

// On plateau-heavy data the ordering flips: XOR codecs and dict must beat
// the delta coders' CBF ratios by a wide margin.
func TestLosslessRatioBandsOnPlateaus(t *testing.T) {
	sig := make([]float64, 0, 128*50)
	level := 2.5
	state := uint64(7)
	for i := 0; i < 128*50; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		if state%64 == 0 {
			level = float64(state % 8)
		}
		sig = append(sig, level)
	}
	bands := map[string][2]float64{
		"gorilla": {0.0, 0.20},
		"chimp":   {0.0, 0.20},
		"dict":    {0.0, 0.10},
		"sprintz": {0.0, 0.15},
		"elf":     {0.0, 0.20},
		"gzip":    {0.0, 0.10},
	}
	for name, band := range bands {
		codec, _ := DefaultRegistry(4).Lookup(name)
		var raw, comp int64
		for start := 0; start < len(sig); start += 128 {
			enc, err := Compress(codec, sig[start:start+128])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			raw += 8 * 128
			comp += int64(enc.Size())
		}
		ratio := float64(comp) / float64(raw)
		if ratio < band[0] || ratio > band[1] {
			t.Errorf("%s: plateau ratio %.3f outside band [%.2f, %.2f]", name, ratio, band[0], band[1])
		}
	}
}
