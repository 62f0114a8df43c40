package compress

import (
	"math"
	"testing"
)

// These tests pin down the semantics of "virtual decompression" (paper
// §IV-E): recoding an already-compressed segment must be equivalent — or
// provably close — to compressing the raw segment directly at the tighter
// ratio.

func TestPAARecodeEquivalentToDirect(t *testing.T) {
	sig := smoothSignal(1024, 30)
	paa := NewPAA()
	first := paaEncode(nil, sig, 4)
	// Pick the ratio whose budget-derived window is exactly 16 = 4×4, so
	// the merge is a whole multiple and must be exact.
	ratio16 := 523.0 / 8192
	if w := paaWindowForRatio(len(sig), ratio16); w != 16 {
		t.Fatalf("test setup: window = %d, want 16", w)
	}
	recoded, err := paa.Recode(first, ratio16)
	if err != nil {
		t.Fatal(err)
	}
	direct := paaEncode(nil, sig, 16)
	rv, err := Decompress(paa, recoded)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := Decompress(paa, direct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rv {
		if math.Abs(rv[i]-dv[i]) > 1e-9 {
			t.Fatalf("value %d: recoded %v vs direct %v", i, rv[i], dv[i])
		}
	}
}

func TestPAARecodePreservesGlobalMean(t *testing.T) {
	sig := smoothSignal(1000, 31)
	paa := NewPAA()
	enc, err := paa.CompressRatio(sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var rawSum float64
	for _, v := range sig {
		rawSum += v
	}
	for _, ratio := range []float64{0.25, 0.1, 0.04} {
		enc, err = paa.Recode(enc, ratio)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decompress(paa, enc)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range dec {
			sum += v
		}
		if math.Abs(sum-rawSum) > 1e-6*math.Abs(rawSum) {
			t.Fatalf("ratio %v: repeated recoding drifted the mean: %v vs %v", ratio, sum, rawSum)
		}
	}
}

func TestFFTRecodeKeepsCoefficientSubset(t *testing.T) {
	sig := smoothSignal(512, 32)
	fft := NewFFT()
	big, err := fft.CompressRatio(sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	small, err := fft.Recode(big, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	nBig, bigCoefs, err := fftParse(big.Data)
	if err != nil {
		t.Fatal(err)
	}
	nSmall, smallCoefs, err := fftParse(small.Data)
	if err != nil {
		t.Fatal(err)
	}
	if nBig != nSmall {
		t.Fatal("N changed")
	}
	if len(smallCoefs) >= len(bigCoefs) {
		t.Fatalf("recode kept %d of %d coefficients", len(smallCoefs), len(bigCoefs))
	}
	set := map[int]complex128{}
	for _, c := range bigCoefs {
		set[c.idx] = c.val
	}
	for _, c := range smallCoefs {
		v, ok := set[c.idx]
		if !ok {
			t.Fatalf("recode invented coefficient %d", c.idx)
		}
		if v != c.val {
			t.Fatalf("recode altered coefficient %d", c.idx)
		}
	}
}

func TestBUFFRecodeEquivalentToDirectTruncation(t *testing.T) {
	sig := smoothSignal(1000, 33)
	bl := NewBUFFLossy(testPrecision)
	mid, err := bl.CompressRatio(sig, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	recoded, err := bl.Recode(mid, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := bl.CompressRatio(sig, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := Decompress(bl, recoded)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := Decompress(bl, direct)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv) != len(dv) {
		t.Fatal("length mismatch")
	}
	// Bit truncation is associative: truncating 0.4→0.2 equals truncating
	// 1.0→0.2 whenever the stored widths match.
	if recoded.Size() != direct.Size() {
		t.Fatalf("sizes differ: recoded %d vs direct %d", recoded.Size(), direct.Size())
	}
	for i := range rv {
		if rv[i] != dv[i] {
			t.Fatalf("value %d: recoded %v vs direct %v", i, rv[i], dv[i])
		}
	}
}

func TestPLARecodeMatchesVirtualLSQ(t *testing.T) {
	// PLA's analytic merge must equal a least-squares fit over the
	// *reconstructed* (virtually decompressed) values.
	sig := smoothSignal(512, 34)
	pla := NewPLA()
	first, err := pla.CompressRatio(sig, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	reconstructed, err := Decompress(pla, first)
	if err != nil {
		t.Fatal(err)
	}
	recoded, err := pla.Recode(first, 0.0625)
	if err != nil {
		t.Fatal(err)
	}
	// Fit the reconstructed values directly at the recoded piece length.
	_, pieceLen, pieces, err := plaParse(recoded.Data)
	if err != nil {
		t.Fatal(err)
	}
	for pi, pc := range pieces {
		start := pi * pieceLen
		end := start + pieceLen
		if end > len(reconstructed) {
			end = len(reconstructed)
		}
		slope, intercept := lsqFit(reconstructed[start:end])
		if math.Abs(slope-pc.slope) > 1e-6 || math.Abs(intercept-pc.intercept) > 1e-6 {
			t.Fatalf("piece %d: analytic (%.9f,%.9f) vs direct LSQ (%.9f,%.9f)",
				pi, pc.slope, pc.intercept, slope, intercept)
		}
	}
}

func TestRepeatedRecodingConvergesToFloor(t *testing.T) {
	sig := smoothSignal(1000, 35)
	for _, c := range lossyCodecs() {
		rec := c.(Recoder)
		enc, err := c.CompressRatio(sig, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		ratio := 0.5
		for i := 0; i < 20; i++ {
			ratio /= 2
			next, err := rec.Recode(enc, ratio)
			if err != nil {
				break // hit the codec's floor: acceptable
			}
			if next.Size() > enc.Size() {
				t.Fatalf("%s: recode grew at step %d", c.Name(), i)
			}
			enc = next
		}
		// Whatever the floor, the result must still decode to full length.
		dec, err := Decompress(c, enc)
		if err != nil {
			t.Fatalf("%s: floor representation broken: %v", c.Name(), err)
		}
		if len(dec) != len(sig) {
			t.Fatalf("%s: floor length %d", c.Name(), len(dec))
		}
	}
}
