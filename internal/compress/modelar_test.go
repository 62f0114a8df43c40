package compress

import (
	"math"
	"testing"
)

func TestModelarConstantRuns(t *testing.T) {
	// A plateau signal should collapse to very few constant models even at
	// error bound zero.
	sig := make([]float64, 1000)
	for i := range sig {
		sig[i] = 5.25
	}
	m := NewModelar()
	enc, err := Compress(m, sig)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Size() > 32 {
		t.Fatalf("constant signal used %d bytes", enc.Size())
	}
	dec, err := Decompress(m, enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec {
		if v != 5.25 {
			t.Fatalf("value %d = %v", i, v)
		}
	}
}

func TestModelarLinearRuns(t *testing.T) {
	// A perfect ramp should collapse to one Swing model at eps 0.
	sig := make([]float64, 500)
	for i := range sig {
		sig[i] = 2 + 0.5*float64(i)
	}
	m := NewModelar()
	enc, err := Compress(m, sig)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Size() > 40 {
		t.Fatalf("ramp used %d bytes (models did not extend)", enc.Size())
	}
	dec, err := Decompress(m, enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sig {
		if math.Abs(dec[i]-sig[i]) > 1e-9 {
			t.Fatalf("value %d: %v vs %v", i, dec[i], sig[i])
		}
	}
}

func TestModelarErrorBoundRespected(t *testing.T) {
	sig := smoothSignal(1000, 50)
	for _, eps := range []float64{0.05, 0.2, 1.0} {
		enc := modelarEncode(nil, sig, eps)
		dec, err := Decompress(NewModelar(), enc)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := range sig {
			if d := math.Abs(dec[i] - sig[i]); d > worst {
				worst = d
			}
		}
		// The mid-range/mid-slope choice keeps the error within eps (plus
		// float slack).
		if worst > eps+1e-9 {
			t.Fatalf("eps %v: worst error %v", eps, worst)
		}
	}
}

func TestModelarRatioTargeting(t *testing.T) {
	sig := smoothSignal(1000, 51)
	m := NewModelar()
	for _, r := range []float64{0.5, 0.2, 0.05} {
		enc, err := m.CompressRatio(sig, r)
		if err != nil {
			t.Fatalf("ratio %v: %v", r, err)
		}
		if got := enc.Ratio(); got > r+0.01 {
			t.Fatalf("target %v achieved %v", r, got)
		}
		dec, err := Decompress(m, enc)
		if err != nil || len(dec) != len(sig) {
			t.Fatalf("ratio %v: decode broken (%v)", r, err)
		}
	}
	if _, err := m.CompressRatio(sig, 0.0001); err != ErrRatioInfeasible {
		t.Fatalf("want ErrRatioInfeasible, got %v", err)
	}
}

func TestModelarTighterRatioMoreError(t *testing.T) {
	sig := smoothSignal(1000, 52)
	m := NewModelar()
	mse := func(ratio float64) float64 {
		enc, err := m.CompressRatio(sig, ratio)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decompress(m, enc)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for i := range sig {
			d := sig[i] - dec[i]
			s += d * d
		}
		return s / float64(len(sig))
	}
	loose, tight := mse(0.4), mse(0.05)
	if tight < loose {
		t.Fatalf("tighter budget should cost accuracy: loose %g, tight %g", loose, tight)
	}
}

func TestModelarRecode(t *testing.T) {
	sig := smoothSignal(1000, 53)
	m := NewModelar()
	enc, err := m.CompressRatio(sig, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m.Recode(enc, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Size() >= enc.Size() {
		t.Fatalf("recode did not shrink: %d -> %d", enc.Size(), rec.Size())
	}
	if same, err := m.Recode(enc, 0.9); err != nil || same.Size() != enc.Size() {
		t.Fatalf("loosening recode should be a no-op (%v)", err)
	}
}

func TestModelarDirectSum(t *testing.T) {
	sig := smoothSignal(777, 54)
	m := NewModelar()
	enc, err := m.CompressRatio(sig, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.SumEncoded(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := decompSum(t, m, enc)
	if !relClose(direct, want, 1e-9) {
		t.Fatalf("direct %v vs decompressed %v", direct, want)
	}
}

func TestModelarErrors(t *testing.T) {
	m := NewModelar()
	if _, err := Compress(m, nil); err != ErrEmptyInput {
		t.Fatal(err)
	}
	if _, err := m.CompressRatio(nil, 0.5); err != ErrEmptyInput {
		t.Fatal(err)
	}
	if _, err := Decompress(m, Encoded{Codec: "paa"}); err != ErrCodecMismatch {
		t.Fatal(err)
	}
	enc, _ := Compress(m, []float64{1, 2, 3})
	enc.Data = enc.Data[:2]
	if _, err := Decompress(m, enc); err == nil {
		t.Fatal("truncated accepted")
	}
}

func TestSummaryExactAggregates(t *testing.T) {
	sig := smoothSignal(999, 55)
	var wantSum float64
	wantLo, wantHi := math.Inf(1), math.Inf(-1)
	for _, v := range sig {
		wantSum += v
		wantLo = math.Min(wantLo, v)
		wantHi = math.Max(wantHi, v)
	}
	s := NewSummary()
	enc, err := s.CompressRatio(sig, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, err := s.SumEncoded(enc)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := s.MinMaxEncoded(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Exact against the ORIGINAL data — the codec's defining property.
	if !relClose(gotSum, wantSum, 1e-12) || lo != wantLo || hi != wantHi {
		t.Fatalf("aggregates drifted: sum %v/%v min %v/%v max %v/%v",
			gotSum, wantSum, lo, wantLo, hi, wantHi)
	}
}

func TestSummaryRecodePreservesExactness(t *testing.T) {
	sig := smoothSignal(1024, 56)
	var wantSum float64
	for _, v := range sig {
		wantSum += v
	}
	s := NewSummary()
	enc, err := s.CompressRatio(sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{0.2, 0.08, 0.05} {
		enc, err = s.Recode(enc, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.SumEncoded(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(got, wantSum, 1e-12) {
			t.Fatalf("ratio %v: sum %v vs %v after recode chain", r, got, wantSum)
		}
	}
}

func TestSummaryDecompressLength(t *testing.T) {
	sig := smoothSignal(333, 57)
	s := NewSummary()
	enc, err := s.CompressRatio(sig, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(sig) {
		t.Fatalf("length %d", len(dec))
	}
}

func TestExtendedRegistry(t *testing.T) {
	r := ExtendedRegistry(4)
	if _, ok := r.Lookup("modelar"); !ok {
		t.Fatal("modelar missing")
	}
	if _, ok := r.Lookup("summary"); !ok {
		t.Fatal("summary missing")
	}
	if got := len(r.Lossy()); got != 8 {
		t.Fatalf("extended lossy count = %d, want 8", got)
	}
	// Both must be usable through the generic registry path.
	sig := smoothSignal(300, 58)
	for _, name := range []string{"modelar", "summary"} {
		c, _ := r.Lookup(name)
		enc, err := c.(LossyCodec).CompressRatio(sig, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Decompress(enc); err != nil {
			t.Fatal(err)
		}
	}
}
