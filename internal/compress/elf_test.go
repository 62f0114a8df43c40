package compress

import (
	"math"
	"testing"
	"testing/quick"
)

func TestElfRoundTripExact(t *testing.T) {
	signals := map[string][]float64{
		"smooth": smoothSignal(2000, 21),
		"walk":   randomWalk(2000, 22),
		"edge":   quantize([]float64{0, -0, 1e-4, -1e-4, 12345.6789, -99999.9999, 0.0001}),
	}
	c := NewElf(testPrecision)
	for name, sig := range signals {
		enc, err := Compress(c, sig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := Decompress(c, enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range sig {
			if dec[i] != sig[i] {
				t.Fatalf("%s[%d]: %v != %v", name, i, dec[i], sig[i])
			}
		}
	}
}

func TestElfBeatsGorillaOnQuantizedData(t *testing.T) {
	// Elf's whole point: erased mantissa tails give the XOR stage long
	// trailing-zero runs that raw Gorilla cannot see. On decimal-quantized
	// noisy data Elf must compress strictly better.
	sig := smoothSignal(4000, 23)
	elf, err := Compress(NewElf(testPrecision), sig)
	if err != nil {
		t.Fatal(err)
	}
	gor, err := Compress(NewGorilla(), sig)
	if err != nil {
		t.Fatal(err)
	}
	if elf.Size() >= gor.Size() {
		t.Fatalf("elf %d bytes should beat gorilla %d bytes on quantized data", elf.Size(), gor.Size())
	}
}

func TestElfEraseInvertible(t *testing.T) {
	c := NewElf(4)
	f := func(raw int32) bool {
		v := float64(raw%1_000_000) / 1e4 // 4-decimal values
		eb := c.erase(v)
		return c.restore(eb) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestElfSpecialValues(t *testing.T) {
	c := NewElf(4)
	for _, v := range []float64{0, math.Inf(1), math.Inf(-1)} {
		if got := c.restore(c.erase(v)); got != v {
			t.Fatalf("special value %v -> %v", v, got)
		}
	}
	// NaN survives erase (bit pattern preserved).
	if !math.IsNaN(math.Float64frombits(c.erase(math.NaN()))) {
		t.Fatal("NaN not preserved by erase")
	}
}

func TestElfMixedPrecisionHeader(t *testing.T) {
	// The precision travels in the header: decompressing with a codec
	// built at a different precision still restores correctly.
	sig := quantize(smoothSignal(100, 24))
	enc, err := Compress(NewElf(4), sig)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(NewElf(9), enc) // different instance precision
	if err != nil {
		t.Fatal(err)
	}
	for i := range sig {
		if dec[i] != sig[i] {
			t.Fatalf("value %d: %v != %v", i, dec[i], sig[i])
		}
	}
}

func TestElfCorruptRejected(t *testing.T) {
	sig := smoothSignal(200, 25)
	c := NewElf(testPrecision)
	enc, err := Compress(c, sig)
	if err != nil {
		t.Fatal(err)
	}
	enc.Data = enc.Data[:4]
	if _, err := Decompress(c, enc); err == nil {
		t.Fatal("truncated data accepted")
	}
	if _, err := Decompress(c, Encoded{Codec: "gzip"}); err != ErrCodecMismatch {
		t.Fatalf("want ErrCodecMismatch, got %v", err)
	}
}
