package compress

import (
	"runtime/debug"
	"testing"
)

// Steady-state allocation pins for every codec type. The codecs sit under
// every speculative trial the online evaluator runs and every collector
// decode, so a single stray allocation per call multiplies across arms ×
// segments. The contract: after one warm-up call has sized the
// caller-owned dst (and the codec's pooled scratch), CompressInto and
// DecompressInto allocate no more than the pinned count — zero for the
// bit-kernel codecs and for every decoder that does not run a stdlib
// flate reader. The non-zero pins are what the codec measured when it was
// ported: Dict's value index, FFT's transform and ranking, LTTB's index
// list, and compress/flate's per-block Huffman tables, whose count
// follows the data (25–26 on this signal), hence a ceiling.

// allocSignal is shaped to exercise every kernel path: repeats (Gorilla /
// Chimp zero-XOR flags), smooth ramps (Sprintz residual widths), and a
// non-trivial value range (BUFF width selection).
func allocSignal(n int) []float64 {
	sig := make([]float64, n)
	for i := range sig {
		switch {
		case i%7 == 3:
			sig[i] = sig[i-1] // repeat run
		default:
			sig[i] = float64(i%31)/8 + float64(i)/997
		}
	}
	return sig
}

// raceBuild reports whether the binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func TestCodecAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so pooled scratch is rebuilt mid-measurement")
	}
	sig := allocSignal(256)
	for _, tc := range []struct {
		c                    Codec
		compress, decompress float64
	}{
		{NewGorilla(), 0, 0},
		{NewChimp(), 0, 0},
		{NewSprintz(4), 0, 0},
		{NewBUFF(4), 0, 0},
		{NewBUFFLossy(4), 0, 0},
		{NewElf(4), 0, 0},
		{NewSnappy(), 0, 0},
		{NewDict(), 15, 0},
		{NewGzip(), 0, 32},
		{NewZlib(6), 0, 32},
		{NewPAA(), 0, 0},
		{NewPLA(), 0, 0},
		{NewFFT(), 9, 0},
		{NewLTTB(), 1, 0},
		{NewRRDSample(1), 0, 0},
		{NewModelar(), 0, 0},
		{NewSummary(), 0, 0},
	} {
		c := tc.c
		t.Run(c.Name(), func(t *testing.T) {
			// Warm-up sizes the buffers.
			enc, err := c.CompressInto(nil, sig)
			if err != nil {
				t.Fatal(err)
			}
			encBuf := enc.Data
			decBuf, err := c.DecompressInto(nil, enc)
			if err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(200, func() {
				e, err := c.CompressInto(encBuf, sig)
				if err != nil {
					t.Fatal(err)
				}
				encBuf, enc = e.Data, e
			}); got > tc.compress {
				t.Errorf("CompressInto allocates %v/op steady-state, want at most %v", got, tc.compress)
			}
			if got := testing.AllocsPerRun(200, func() {
				v, err := c.DecompressInto(decBuf, enc)
				if err != nil {
					t.Fatal(err)
				}
				decBuf = v
			}); got > tc.decompress {
				t.Errorf("DecompressInto allocates %v/op steady-state, want at most %v", got, tc.decompress)
			}
		})
	}
}
