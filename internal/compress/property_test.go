package compress

import (
	"math"
	"testing"
	"testing/quick"
)

// Property-based invariants on the lossy codecs' error semantics.

// BUFF-lossy truncation error is bounded by the quantum of the dropped
// bits: |v − v̂| ≤ 2^(drop−1)/scale (the reconstruction bias sits at the
// midpoint of the truncated range).
func TestQuickBUFFLossyErrorBound(t *testing.T) {
	c := NewBUFFLossy(testPrecision)
	scale := math.Pow10(testPrecision)
	f := func(raw []int16, ratioSeed uint8) bool {
		if len(raw) < 64 {
			return true
		}
		sig := make([]float64, len(raw))
		for i, v := range raw {
			sig[i] = float64(v) / 16
		}
		ratio := 0.15 + float64(ratioSeed)/255*0.5
		if ratio < c.MinRatio(sig) {
			return true
		}
		enc, err := c.CompressRatio(sig, ratio)
		if err != nil {
			return true // infeasible at this ratio: fine
		}
		_, width, drop := buffHeaderSize(enc.Data)
		_ = width
		bound := math.Pow(2, float64(drop)) / 2 / scale
		dec, err := Decompress(c, enc)
		if err != nil {
			return false
		}
		for i := range sig {
			if math.Abs(dec[i]-sig[i]) > bound+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// PAA reconstruction preserves the global sum to float tolerance at any
// ratio.
func TestQuickPAASumPreservation(t *testing.T) {
	c := NewPAA()
	f := func(raw []int16, ratioSeed uint8) bool {
		if len(raw) < 16 {
			return true
		}
		sig := make([]float64, len(raw))
		var want float64
		for i, v := range raw {
			sig[i] = float64(v) / 8
			want += sig[i]
		}
		ratio := 0.05 + float64(ratioSeed)/255*0.9
		if ratio < c.MinRatio(sig) {
			return true
		}
		enc, err := c.CompressRatio(sig, ratio)
		if err != nil {
			return false
		}
		dec, err := Decompress(c, enc)
		if err != nil {
			return false
		}
		var got float64
		for _, v := range dec {
			got += v
		}
		tol := 1e-9 * math.Max(1, math.Abs(want))
		return math.Abs(got-want) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Summary's direct aggregates are exact against the ORIGINAL values at any
// ratio, including after arbitrary recode chains.
func TestQuickSummaryExactness(t *testing.T) {
	c := NewSummary()
	f := func(raw []int16, ratioSeed, recodeSeed uint8) bool {
		if len(raw) < 32 {
			return true
		}
		sig := make([]float64, len(raw))
		var wantSum float64
		wantLo, wantHi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			sig[i] = float64(v) / 4
			wantSum += sig[i]
			wantLo = math.Min(wantLo, sig[i])
			wantHi = math.Max(wantHi, sig[i])
		}
		ratio := 0.2 + float64(ratioSeed)/255*0.6
		if ratio < c.MinRatio(sig) {
			return true
		}
		enc, err := c.CompressRatio(sig, ratio)
		if err != nil {
			return false
		}
		// Optional recode chain.
		for i := 0; i < int(recodeSeed%3); i++ {
			next, err := c.Recode(enc, ratio/float64(2*(i+1)))
			if err != nil {
				break
			}
			enc = next
		}
		gotSum, err := c.SumEncoded(enc)
		if err != nil {
			return false
		}
		lo, hi, err := c.MinMaxEncoded(enc)
		if err != nil {
			return false
		}
		tol := 1e-9 * math.Max(1, math.Abs(wantSum))
		return math.Abs(gotSum-wantSum) <= tol && lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Modelar under any error bound ε reconstructs within ε.
func TestQuickModelarErrorBound(t *testing.T) {
	f := func(raw []int16, epsSeed uint8) bool {
		if len(raw) < 8 {
			return true
		}
		sig := make([]float64, len(raw))
		for i, v := range raw {
			sig[i] = float64(v) / 32
		}
		eps := float64(epsSeed) / 16
		enc := modelarEncode(nil, sig, eps)
		dec, err := Decompress(NewModelar(), enc)
		if err != nil || len(dec) != len(sig) {
			return false
		}
		for i := range sig {
			if math.Abs(dec[i]-sig[i]) > eps+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Every lossy codec's achieved size is monotone non-increasing in the
// target ratio (a tighter target never yields a bigger encoding).
func TestQuickLossySizeMonotone(t *testing.T) {
	codecs := lossyCodecs()
	f := func(raw []int16) bool {
		if len(raw) < 64 {
			return true
		}
		sig := make([]float64, len(raw))
		for i, v := range raw {
			sig[i] = float64(v) / 16
		}
		for _, c := range codecs {
			prev := -1
			for _, ratio := range []float64{0.8, 0.4, 0.2, 0.1} {
				if ratio < c.MinRatio(sig) {
					continue
				}
				enc, err := c.CompressRatio(sig, ratio)
				if err != nil {
					continue
				}
				if prev >= 0 && enc.Size() > prev {
					return false
				}
				prev = enc.Size()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
