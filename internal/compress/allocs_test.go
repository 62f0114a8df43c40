package compress

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/datasets"
)

// Steady-state allocation pins for every codec type. The codecs sit under
// every speculative trial the online evaluator runs and every collector
// decode, so a single stray allocation per call multiplies across arms ×
// segments. The contract: after one warm-up call has sized the
// caller-owned dst (and the codec's pooled scratch), CompressInto and
// DecompressInto allocate nothing, on every codec and with no exception:
// gzip and zlib decode through the in-house inflate, whose Huffman tables
// are rebuilt in place for each block (TestInflateAllocs pins stored,
// fixed and dynamic blocks alike). The lossy codecs' ratio-driven entry
// points are pinned beside them: MinRatio and CompressRatioInto and
// RecodeInto at zero, CompressRatio and Recode at one, the payload.
// Compress, the nil-dst form, is one on every codec.

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
	// lossy pins the ratio-driven entry points: MinRatio, CompressRatio and
	// CompressRatioInto at 0.2, and Recode and RecodeInto 0.2 -> 0.1.
	// CompressRatio and Recode return a fresh payload, so their floor is 1,
	// the exact-size output; CompressRatioInto and RecodeInto reuse their
	// warmed-up dst, as the online trial loop and the offline recoder do, so
	// their floor is 0.
	type lossy struct{ minRatio, ratio, ratioInto, recode, recodeInto float64 }
	onePayload := &lossy{0, 1, 0, 1, 0}
	for _, tc := range []struct {
		c                    Codec
		compress, decompress float64
		lossy                *lossy
	}{
		{NewGorilla(), 0, 0, nil},
		{NewChimp(), 0, 0, nil},
		{NewSprintz(4), 0, 0, nil},
		{NewBUFF(4), 0, 0, nil},
		// MinRatio and CompressRatio still run a full-width sizing encode
		// (on purpose, see buffCore.probeFull), but into pooled scratch.
		{NewBUFFLossy(4), 0, 0, onePayload},
		{NewElf(4), 0, 0, nil},
		{NewSnappy(), 0, 0, nil},
		{NewDict(), 0, 0, nil},
		{NewGzip(), 0, 0, nil},
		{NewZlib(1), 0, 0, nil},
		{NewZlib(6), 0, 0, nil},
		{NewZlib(9), 0, 0, nil},
		{NewPAA(), 0, 0, onePayload},
		{NewPLA(), 0, 0, onePayload},
		{NewFFT(), 0, 0, onePayload},
		{NewLTTB(), 0, 0, onePayload},
		{NewRRDSample(1), 0, 0, onePayload},
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
			pin := func(what string, want float64, fn func() error) {
				t.Helper()
				if got := testing.AllocsPerRun(200, func() {
					if err := fn(); err != nil {
						t.Fatal(err)
					}
				}); got > want {
					t.Errorf("%s allocates %v/op steady-state, want at most %v", what, got, want)
				}
			}
			pin("CompressInto", tc.compress, func() error {
				e, err := c.CompressInto(encBuf, sig)
				encBuf, enc = e.Data, e
				return err
			})
			// Every codec: one allocation, the payload at its length,
			// whatever the codec's own growth pattern.
			pin("Compress", 1, func() error {
				_, err := Compress(c, sig)
				return err
			})
			pin("DecompressInto", tc.decompress, func() error {
				v, err := c.DecompressInto(decBuf, enc)
				decBuf = v
				return err
			})
			if tc.lossy == nil {
				return
			}
			lc := c.(LossyCodec)
			pin("MinRatio", tc.lossy.minRatio, func() error {
				lc.MinRatio(sig)
				return nil
			})
			var at02 Encoded
			pin("CompressRatio", tc.lossy.ratio, func() error {
				at02, err = lc.CompressRatio(sig, 0.2)
				return err
			})
			var into []byte
			pin("CompressRatioInto", tc.lossy.ratioInto, func() error {
				e, err := lc.CompressRatioInto(into, sig, 0.2)
				into = e.Data
				return err
			})
			pin("Recode", tc.lossy.recode, func() error {
				_, err := c.(Recoder).Recode(at02, 0.1)
				return err
			})
			// A recode that is kept is smaller than its input.
			recoded := make([]byte, 0, at02.Size())
			pin("RecodeInto", tc.lossy.recodeInto, func() error {
				_, err := c.(Recoder).RecodeInto(recoded, at02, 0.1)
				return err
			})
		})
	}
}

// liveHeap is the heap still reachable after the pools let go.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the first cycle only moves pooled scratch to the victim cache
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCompressRetainedBytes pins what a kept Compress payload costs the
// heap: 4 096 encodes of seed-11 CBF segments per codec, all held live, at
// most 1.15 × their mean length plus 16 bytes each. The allocator's size
// classes round up by at most 12.5 % above 1 KiB; what is left of the margin
// catches a codec whose grown buffer leaves with the payload (gorilla,
// chimp, sprintz, snappy, gzip and zlib-6/9 kept 33–73 % spare capacity
// before Compress copied out of pooled scratch).
func TestCompressRetainedBytes(t *testing.T) {
	if raceBuild() {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so pooled scratch is rebuilt mid-measurement")
	}
	segs, _ := datasets.CBF(1024, datasets.CBFConfig{Seed: 11})
	kept := make([]Encoded, 4096)
	reg := DefaultRegistry(4)
	for _, name := range reg.Names() {
		c, _ := reg.Lookup(name)
		t.Run(name, func(t *testing.T) {
			before := liveHeap()
			payload := 0
			for i := range kept {
				enc, err := Compress(c, segs[i%len(segs)])
				if err != nil {
					t.Fatal(err)
				}
				kept[i] = enc
				payload += enc.Size()
			}
			perPayload := float64(liveHeap()-before) / float64(len(kept))
			mean := float64(payload) / float64(len(kept))
			if budget := 1.15*mean + 16; perPayload > budget {
				t.Errorf("a kept payload of %.0f bytes on average holds %.0f bytes of heap, budget %.0f", mean, perPayload, budget)
			} else {
				t.Logf("%.0f-byte payloads hold %.0f bytes each", mean, perPayload)
			}
			clear(kept)
		})
	}
}
