package compress

import (
	"math"
	"testing"
)

// decompSum is the reference: decompress, then aggregate.
func decompSum(t *testing.T, c Codec, enc Encoded) float64 {
	t.Helper()
	vals, err := Decompress(c, enc)
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

func decompMinMax(t *testing.T, c Codec, enc Encoded) (float64, float64) {
	t.Helper()
	vals, err := Decompress(c, enc)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestDirectSumMatchesDecompressed(t *testing.T) {
	sig := smoothSignal(999, 40) // odd length exercises partial windows
	cases := []struct {
		codec Codec
		enc   func() (Encoded, error)
	}{
		{NewPAA(), func() (Encoded, error) { return NewPAA().CompressRatio(sig, 0.2) }},
		{NewPLA(), func() (Encoded, error) { return NewPLA().CompressRatio(sig, 0.2) }},
		{NewFFT(), func() (Encoded, error) { return NewFFT().CompressRatio(sig, 0.2) }},
		{NewLTTB(), func() (Encoded, error) { return NewLTTB().CompressRatio(sig, 0.2) }},
		{NewRRDSample(1), func() (Encoded, error) { return NewRRDSample(1).CompressRatio(sig, 0.2) }},
		{NewBUFF(testPrecision), func() (Encoded, error) { return Compress(NewBUFF(testPrecision), sig) }},
		{NewBUFFLossy(testPrecision), func() (Encoded, error) { return NewBUFFLossy(testPrecision).CompressRatio(sig, 0.3) }},
	}
	for _, c := range cases {
		enc, err := c.enc()
		if err != nil {
			t.Fatalf("%s: %v", c.codec.Name(), err)
		}
		ds, ok := c.codec.(DirectSummer)
		if !ok {
			t.Fatalf("%s does not implement DirectSummer", c.codec.Name())
		}
		direct, err := ds.SumEncoded(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.codec.Name(), err)
		}
		want := decompSum(t, c.codec, enc)
		if !relClose(direct, want, 1e-9) {
			t.Errorf("%s: direct sum %v vs decompressed sum %v", c.codec.Name(), direct, want)
		}
	}
}

func TestDirectMinMaxMatchesDecompressed(t *testing.T) {
	sig := smoothSignal(1000, 41)
	type mm interface {
		DirectMinMaxer
		Codec
	}
	build := []struct {
		codec mm
		enc   func() (Encoded, error)
	}{
		{NewPAA(), func() (Encoded, error) { return NewPAA().CompressRatio(sig, 0.25) }},
		{NewPLA(), func() (Encoded, error) { return NewPLA().CompressRatio(sig, 0.25) }},
		{NewLTTB(), func() (Encoded, error) { return NewLTTB().CompressRatio(sig, 0.25) }},
		{NewRRDSample(1), func() (Encoded, error) { return NewRRDSample(1).CompressRatio(sig, 0.25) }},
		{NewBUFF(testPrecision), func() (Encoded, error) { return Compress(NewBUFF(testPrecision), sig) }},
		{NewBUFFLossy(testPrecision), func() (Encoded, error) { return NewBUFFLossy(testPrecision).CompressRatio(sig, 0.3) }},
	}
	for _, c := range build {
		enc, err := c.enc()
		if err != nil {
			t.Fatalf("%s: %v", c.codec.Name(), err)
		}
		lo, hi, err := c.codec.MinMaxEncoded(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.codec.Name(), err)
		}
		wlo, whi := decompMinMax(t, c.codec, enc)
		if !relClose(lo, wlo, 1e-9) || !relClose(hi, whi, 1e-9) {
			t.Errorf("%s: direct (%v,%v) vs decompressed (%v,%v)", c.codec.Name(), lo, hi, wlo, whi)
		}
	}
}

func TestDictDirectMinMax(t *testing.T) {
	sig := lowCardinality(500, 42)
	d := NewDict()
	enc, err := Compress(d, sig)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := d.MinMaxEncoded(enc)
	if err != nil {
		t.Fatal(err)
	}
	wlo, whi := decompMinMax(t, d, enc)
	if lo != wlo || hi != whi {
		t.Fatalf("dict direct (%v,%v) vs decompressed (%v,%v)", lo, hi, wlo, whi)
	}
}

func TestDirectRejectsWrongCodec(t *testing.T) {
	sig := smoothSignal(100, 43)
	enc, err := NewPAA().CompressRatio(sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPLA().SumEncoded(enc); err != ErrCodecMismatch {
		t.Fatalf("want ErrCodecMismatch, got %v", err)
	}
	if _, _, err := NewLTTB().MinMaxEncoded(enc); err != ErrCodecMismatch {
		t.Fatalf("want ErrCodecMismatch, got %v", err)
	}
}

func TestFFTDirectSumWithoutDC(t *testing.T) {
	// A zero-mean signal may drop its DC bin under top-k selection; the
	// direct sum must then agree with the (≈0) decompressed sum.
	sig := make([]float64, 256)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 3 * float64(i) / 256)
	}
	f := NewFFT()
	enc, err := f.CompressRatio(sig, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := f.SumEncoded(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := decompSum(t, f, enc)
	if math.Abs(direct-want) > 1e-6 {
		t.Fatalf("direct %v vs decompressed %v", direct, want)
	}
}

func TestDirectAggregationAfterRecode(t *testing.T) {
	// Direct operators must keep working on recoded representations.
	sig := smoothSignal(1000, 44)
	paa := NewPAA()
	enc, err := paa.CompressRatio(sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	enc, err = paa.Recode(enc, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := paa.SumEncoded(enc)
	if err != nil {
		t.Fatal(err)
	}
	if want := decompSum(t, paa, enc); !relClose(direct, want, 1e-9) {
		t.Fatalf("recoded direct sum %v vs %v", direct, want)
	}
}
