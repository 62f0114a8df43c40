package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/adler32"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/freelist"
)

const testPrecision = 4

// quantize rounds values to the test precision, matching the dataset
// contract BUFF and Sprintz rely on.
func quantize(values []float64) []float64 {
	scale := math.Pow10(testPrecision)
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = math.Round(v*scale) / scale
	}
	return out
}

func smoothSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	phase := rng.Float64() * math.Pi
	for i := range out {
		out[i] = 5*math.Sin(2*math.Pi*float64(i)/64+phase) + 0.1*rng.NormFloat64()
	}
	return quantize(out)
}

func randomWalk(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	v := 100.0
	for i := range out {
		v += rng.NormFloat64()
		out[i] = v
	}
	return quantize(out)
}

func lowCardinality(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	levels := []float64{0, 0.5, 1.5, 2.25}
	out := make([]float64, n)
	for i := range out {
		out[i] = levels[rng.Intn(len(levels))]
	}
	return out
}

func constantSignal(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 42.1234
	}
	return out
}

func losslessCodecs() []Codec {
	return []Codec{
		NewGzip(), NewSnappy(), NewZlib(1), NewZlib(9), NewDict(),
		NewGorilla(), NewChimp(), NewSprintz(testPrecision), NewBUFF(testPrecision),
		NewElf(testPrecision),
	}
}

func lossyCodecs() []LossyCodec {
	return []LossyCodec{
		NewBUFFLossy(testPrecision), NewPAA(), NewPLA(), NewFFT(), NewLTTB(), NewRRDSample(1),
	}
}

func TestLosslessRoundTrip(t *testing.T) {
	signals := map[string][]float64{
		"smooth":   smoothSignal(1000, 1),
		"walk":     randomWalk(1000, 2),
		"lowcard":  lowCardinality(1000, 3),
		"constant": constantSignal(500),
		"single":   {3.25},
		"pair":     {1.5, -2.75},
		"negative": quantize([]float64{-1.5, -100.25, -0.0001, -99999.9999}),
	}
	for _, c := range losslessCodecs() {
		for name, sig := range signals {
			enc, err := Compress(c, sig)
			if err != nil {
				t.Fatalf("%s/%s: compress: %v", c.Name(), name, err)
			}
			if enc.Codec != c.Name() {
				t.Fatalf("%s: encoded codec label %q", c.Name(), enc.Codec)
			}
			if enc.N != len(sig) {
				t.Fatalf("%s/%s: N=%d want %d", c.Name(), name, enc.N, len(sig))
			}
			got, err := Decompress(c, enc)
			if err != nil {
				t.Fatalf("%s/%s: decompress: %v", c.Name(), name, err)
			}
			if len(got) != len(sig) {
				t.Fatalf("%s/%s: length %d want %d", c.Name(), name, len(got), len(sig))
			}
			for i := range sig {
				if got[i] != sig[i] {
					t.Fatalf("%s/%s: value %d = %v, want %v", c.Name(), name, i, got[i], sig[i])
				}
			}
		}
	}
}

func TestLosslessCompressesSmoothData(t *testing.T) {
	sig := smoothSignal(4000, 4)
	for _, c := range []Codec{NewSprintz(testPrecision), NewBUFF(testPrecision), NewGzip()} {
		enc, err := Compress(c, sig)
		if err != nil {
			t.Fatal(err)
		}
		if r := enc.Ratio(); r >= 1.0 {
			t.Errorf("%s: ratio %.3f on smooth data, expected < 1", c.Name(), r)
		}
	}
}

// XOR codecs need repeated or slowly-varying bit patterns; a plateau signal
// with occasional level changes is their sweet spot.
func TestXORCodecsCompressPlateaus(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sig := make([]float64, 4000)
	level := 20.5
	for i := range sig {
		if rng.Intn(50) == 0 {
			level += float64(rng.Intn(8)) / 4
		}
		sig[i] = level
	}
	for _, c := range []Codec{NewGorilla(), NewChimp()} {
		enc, err := Compress(c, sig)
		if err != nil {
			t.Fatal(err)
		}
		if r := enc.Ratio(); r >= 0.25 {
			t.Errorf("%s: ratio %.3f on plateau data, expected < 0.25", c.Name(), r)
		}
	}
}

func TestDictExcelsOnLowCardinality(t *testing.T) {
	sig := lowCardinality(4000, 5)
	enc, err := Compress(NewDict(), sig)
	if err != nil {
		t.Fatal(err)
	}
	if r := enc.Ratio(); r > 0.1 {
		t.Errorf("dict ratio %.3f on 4-level data, expected <= 0.1", r)
	}
}

func TestEmptyInput(t *testing.T) {
	for _, c := range losslessCodecs() {
		if _, err := Compress(c, nil); err != ErrEmptyInput {
			t.Errorf("%s: empty compress err = %v, want ErrEmptyInput", c.Name(), err)
		}
	}
	for _, c := range lossyCodecs() {
		if _, err := c.CompressRatio(nil, 0.5); err != ErrEmptyInput {
			t.Errorf("%s: empty lossy compress err = %v, want ErrEmptyInput", c.Name(), err)
		}
	}
}

func TestCodecMismatch(t *testing.T) {
	enc, err := Compress(NewGzip(), smoothSignal(100, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(NewSnappy(), enc); err != ErrCodecMismatch {
		t.Fatalf("want ErrCodecMismatch, got %v", err)
	}
}

func TestLossyHitsTargetRatio(t *testing.T) {
	sig := smoothSignal(2000, 7)
	ratios := []float64{0.5, 0.25, 0.1, 0.05}
	for _, c := range lossyCodecs() {
		minR := c.MinRatio(sig)
		for _, r := range ratios {
			if r < minR {
				if _, err := c.CompressRatio(sig, r); err == nil {
					// Some codecs can legitimately beat their conservative
					// MinRatio estimate; only a hard failure matters.
					continue
				}
				continue
			}
			enc, err := c.CompressRatio(sig, r)
			if err != nil {
				t.Fatalf("%s@%.2f: %v", c.Name(), r, err)
			}
			if got := enc.Ratio(); got > r*1.15+0.01 {
				t.Errorf("%s: target %.2f achieved %.3f (too large)", c.Name(), r, got)
			}
			dec, err := Decompress(c, enc)
			if err != nil {
				t.Fatalf("%s@%.2f: decompress: %v", c.Name(), r, err)
			}
			if len(dec) != len(sig) {
				t.Fatalf("%s@%.2f: len %d want %d", c.Name(), r, len(dec), len(sig))
			}
		}
	}
}

func TestLossyErrorShrinksWithRatio(t *testing.T) {
	sig := smoothSignal(2000, 8)
	for _, c := range lossyCodecs() {
		if c.Name() == "rrdsample" {
			continue // random sampling error is not monotone in ratio
		}
		prevErr := -1.0
		for _, r := range []float64{0.05, 0.2, 0.8} {
			if r < c.MinRatio(sig) {
				continue
			}
			enc, err := c.CompressRatio(sig, r)
			if err != nil {
				t.Fatalf("%s@%.2f: %v", c.Name(), r, err)
			}
			dec, err := Decompress(c, enc)
			if err != nil {
				t.Fatal(err)
			}
			mse := 0.0
			for i := range sig {
				d := sig[i] - dec[i]
				mse += d * d
			}
			mse /= float64(len(sig))
			if prevErr >= 0 && mse > prevErr*1.5+1e-12 {
				t.Errorf("%s: error grew with more budget: %.3g -> %.3g at r=%.2f", c.Name(), prevErr, mse, r)
			}
			prevErr = mse
		}
	}
}

func TestBUFFLossyMinRatioFloor(t *testing.T) {
	sig := smoothSignal(1000, 9)
	c := NewBUFFLossy(testPrecision)
	minR := c.MinRatio(sig)
	if minR <= 0 || minR >= 0.5 {
		t.Fatalf("implausible MinRatio %.3f", minR)
	}
	// Far below the floor the codec must refuse.
	if _, err := c.CompressRatio(sig, 0.001); err != ErrRatioInfeasible {
		t.Fatalf("want ErrRatioInfeasible below floor, got %v", err)
	}
}

func TestPAAPreservesWindowMeans(t *testing.T) {
	sig := smoothSignal(1024, 10)
	c := NewPAA()
	enc, err := c.CompressRatio(sig, 0.125) // window 8
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(c, enc)
	if err != nil {
		t.Fatal(err)
	}
	var origSum, decSum float64
	for i := range sig {
		origSum += sig[i]
		decSum += dec[i]
	}
	if math.Abs(origSum-decSum) > 1e-6*math.Abs(origSum)+1e-9 {
		t.Fatalf("PAA sum drifted: %g vs %g", origSum, decSum)
	}
}

func TestRecodersShrinkInPlace(t *testing.T) {
	sig := smoothSignal(2000, 11)
	for _, c := range lossyCodecs() {
		rec, ok := c.(Recoder)
		if !ok {
			t.Fatalf("%s does not implement Recoder", c.Name())
		}
		enc, err := c.CompressRatio(sig, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		smaller, err := rec.Recode(enc, 0.1)
		if err != nil {
			t.Fatalf("%s: recode: %v", c.Name(), err)
		}
		if smaller.Size() >= enc.Size() {
			t.Errorf("%s: recode did not shrink (%d -> %d)", c.Name(), enc.Size(), smaller.Size())
		}
		if smaller.N != enc.N {
			t.Errorf("%s: recode changed N", c.Name())
		}
		dec, err := Decompress(c, smaller)
		if err != nil {
			t.Fatalf("%s: decompress recoded: %v", c.Name(), err)
		}
		if len(dec) != len(sig) {
			t.Fatalf("%s: recoded length %d", c.Name(), len(dec))
		}
	}
}

func TestRecodeNoOpWhenLarger(t *testing.T) {
	sig := smoothSignal(1000, 12)
	for _, c := range lossyCodecs() {
		rec := c.(Recoder)
		enc, err := c.CompressRatio(sig, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		same, err := rec.Recode(enc, 0.9)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if same.Size() != enc.Size() {
			t.Errorf("%s: recode to a looser ratio should be a no-op", c.Name())
		}
	}
}

func TestRegistry(t *testing.T) {
	r := DefaultRegistry(testPrecision)
	names := r.Names()
	if len(names) != 17 {
		t.Fatalf("expected 17 codecs, got %d: %v", len(names), names)
	}
	if got := len(r.Lossless()); got != 11 {
		t.Errorf("lossless count = %d, want 11", got)
	}
	if got := len(r.Lossy()); got != 6 {
		t.Errorf("lossy count = %d, want 6", got)
	}
	sig := smoothSignal(500, 13)
	for _, n := range names {
		c, ok := r.Lookup(n)
		if !ok {
			t.Fatalf("lookup %q failed", n)
		}
		enc, err := Compress(c, sig)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		dec, err := r.Decompress(enc)
		if err != nil {
			t.Fatalf("%s: registry decompress: %v", n, err)
		}
		if len(dec) != len(sig) {
			t.Fatalf("%s: wrong length", n)
		}
	}
	if _, err := r.Decompress(Encoded{Codec: "nope"}); err == nil {
		t.Fatal("expected unknown-codec error")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a duplicate codec name")
		}
	}()
	NewRegistry(NewGzip(), NewGzip())
}

func TestQuickLosslessRoundTrip(t *testing.T) {
	codecs := losslessCodecs()
	f := func(raw []int32) bool {
		if len(raw) == 0 {
			return true
		}
		sig := make([]float64, len(raw))
		for i, v := range raw {
			sig[i] = float64(v%100000) / 100 // 2-decimal values within sprintz range
		}
		for _, c := range codecs {
			enc, err := Compress(c, sig)
			if err != nil {
				return false
			}
			dec, err := Decompress(c, enc)
			if err != nil || len(dec) != len(sig) {
				return false
			}
			for i := range sig {
				if dec[i] != sig[i] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLossyDecompressesToOriginalLength(t *testing.T) {
	codecs := lossyCodecs()
	f := func(raw []int16, ratioSeed uint8) bool {
		if len(raw) < 32 {
			return true
		}
		sig := make([]float64, len(raw))
		for i, v := range raw {
			sig[i] = float64(v) / 16
		}
		ratio := 0.05 + float64(ratioSeed)/255*0.9
		for _, c := range codecs {
			if ratio < c.MinRatio(sig) {
				continue
			}
			enc, err := c.CompressRatio(sig, ratio)
			if err != nil {
				return false
			}
			dec, err := Decompress(c, enc)
			if err != nil || len(dec) != len(sig) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptDataRejected(t *testing.T) {
	sig := smoothSignal(200, 14)
	for _, c := range losslessCodecs() {
		enc, err := Compress(c, sig)
		if err != nil {
			t.Fatal(err)
		}
		// Truncate hard: every codec should fail loudly, not panic.
		enc.Data = enc.Data[:len(enc.Data)/4]
		if _, err := Decompress(c, enc); err == nil {
			t.Errorf("%s: decompress of truncated data succeeded", c.Name())
		}
	}
}

func TestEncodedRatio(t *testing.T) {
	e := Encoded{Data: make([]byte, 400), N: 100}
	if got := e.Ratio(); got != 0.5 {
		t.Fatalf("Ratio = %v, want 0.5", got)
	}
	if (Encoded{}).Ratio() != 0 {
		t.Fatal("empty Encoded should have ratio 0")
	}
}

// TestFlateBombRejected: a hundred-odd KB of deflated zeros must not
// inflate past the decode bound. The payloads are valid streams holding
// maxDecodePoints points and a MiB more; before the bound existed they
// decoded to all of them, through some 800 MiB of allocation. What a
// rejection costs must not depend on the capacity of the pooled scratch the
// decode happens to draw either: growing by append's own steps it cost 256
// MiB from an empty scratch and 427 from the 1 024 bytes a 128-point
// segment leaves in the pool, so each case primes the pool first.
func TestFlateBombRejected(t *testing.T) {
	if raceBuild() {
		t.Skip("single-goroutine, and inflating 128 MiB a case under the race detector takes ~8 s each")
	}
	var deflated bytes.Buffer
	w, _ := flate.NewWriter(&deflated, flate.BestSpeed)
	crc, adler := crc32.NewIEEE(), adler32.New()
	sink := io.MultiWriter(w, crc, adler)
	zeros := make([]byte, 1<<20)
	size := 0
	for ; size <= 8*maxDecodePoints; size += len(zeros) {
		if _, err := sink.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	le, be := binary.LittleEndian, binary.BigEndian
	for _, tc := range []struct {
		c               Codec
		header, trailer []byte
	}{
		{NewGzip(), []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}, le.AppendUint32(le.AppendUint32(nil, crc.Sum32()), uint32(size))},
		{NewZlib(6), []byte{0x78, 0x01}, be.AppendUint32(nil, adler.Sum32())},
	} {
		payload := append(append(tc.header, deflated.Bytes()...), tc.trailer...)
		for _, scratchCap := range []int{0, 512, 1024, 3000, 8192, 20000, 70000} {
			// The decode's Get returns this buffer, the one put back last
			// (the first Get makes room for it on a full list), and the Get
			// below what the decode put back.
			byteScratch.Get()
			primed := make([]byte, 0, scratchCap)
			byteScratch.Put(&primed)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := tc.c.DecompressInto(nil, Encoded{Codec: tc.c.Name(), Data: payload, N: size / 8})
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: %d-byte payload inflating to %d points: err = %v, want ErrCorrupt", tc.c.Name(), len(payload), size/8, err)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*8*maxDecodePoints); got >= limit {
				t.Errorf("%s, scratch of %d bytes: rejecting the payload allocated %d MiB, want under %d MiB", tc.c.Name(), scratchCap, got>>20, limit>>20)
			}
			if left := byteScratch.Get(); cap(*left) > freelist.MaxBytes {
				t.Errorf("%s, scratch of %d bytes: the rejected decode left a %d MiB buffer on the free list", tc.c.Name(), scratchCap, cap(*left)>>20)
			}
		}
	}
}

// TestZeroSignContract pins what "lossless" promises about the sign of
// zero: every lossless codec round-trips values that compare equal, the
// byte and XOR codecs also keep the bits, the quantizing codecs (Sprintz,
// BUFF, BUFF-lossy at ratio 1) decode every zero as +0.0, and Dict gives
// every zero the sign of the segment's first.
func TestZeroSignContract(t *testing.T) {
	negZero := math.Copysign(0, -1)
	in := []float64{1.5, negZero, 0, negZero, 2}
	zeroSigns := map[string][]bool{ // Signbit of decoded in[1:4]; default: as encoded
		"sprintz":   {false, false, false},
		"buff":      {false, false, false},
		"bufflossy": {false, false, false},
		"dict":      {true, true, true},
	}
	reg := DefaultRegistry(testPrecision)
	for _, name := range append(reg.Lossless(), "bufflossy") {
		c, _ := reg.Lookup(name)
		enc, err := Compress(c, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := Decompress(c, enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, ok := zeroSigns[name]
		if !ok {
			want = []bool{true, false, true}
		}
		for i, v := range out {
			if v != in[i] {
				t.Errorf("%s: value %d decodes to %v, want %v", name, i, v, in[i])
			}
			if i >= 1 && i <= 3 && math.Signbit(v) != want[i-1] {
				t.Errorf("%s: zero %d decodes with Signbit %v, want %v", name, i, math.Signbit(v), want[i-1])
			}
		}
	}
}
