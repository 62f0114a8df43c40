package compress

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datasets"
)

// Buffer-aliasing property tests: after the zero-alloc pass, every codec
// must tolerate its scratch buffers being reused across calls — stale
// bytes from a previous segment in dst must never leak into an encoding,
// and no codec may retain a reference into a caller's buffer and write to
// it on a later call. These are exactly the bugs a pooled-buffer refactor
// can introduce while every single-use test stays green.

// aliasSegments returns two deliberately different segments, the second
// longer than the first so the second encoding crosses the first's
// growth boundary.
func aliasSegments() (a, b []float64) {
	a = make([]float64, 96)
	for i := range a {
		a[i] = float64(i%13)/4 - 1.5
	}
	b = make([]float64, 160)
	for i := range b {
		b[i] = float64((i*7)%29)/8 + 0.0625
	}
	return a, b
}

func TestScratchReuseIndependence(t *testing.T) {
	sigA, sigB := aliasSegments()
	reg := DefaultRegistry(4)
	for _, name := range reg.SortedNames() {
		c, _ := reg.Lookup(name)
		t.Run(name, func(t *testing.T) {
			// Reference round trips with fresh buffers.
			freshA, err := Compress(c, sigA)
			if err != nil {
				t.Fatal(err)
			}
			freshB, err := Compress(c, sigB)
			if err != nil {
				t.Fatal(err)
			}
			wantA, err := Decompress(c, freshA)
			if err != nil {
				t.Fatal(err)
			}
			wantB, err := Decompress(c, freshB)
			if err != nil {
				t.Fatal(err)
			}

			// Round trip A through scratch, then B through the SAME scratch.
			encScratch := make([]byte, 0, 8)
			decScratch := make([]float64, 0, 1)
			encA, err := c.CompressInto(encScratch, sigA)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encA.Data, freshA.Data) {
				t.Fatal("scratch encoding of A differs from fresh encoding")
			}
			aliasedA := encA.Data // aliases the scratch we are about to reuse
			keptA := append([]byte(nil), encA.Data...)

			gotA, err := c.DecompressInto(decScratch, encA)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotA, wantA) {
				t.Fatal("scratch decode of A differs from fresh decode")
			}

			// A dst that arrives full of garbage, with room to spare: the
			// decode must overwrite from index 0 and read none of it.
			garbage := make([]float64, 2*len(sigB))
			for i := range garbage {
				garbage[i] = math.NaN()
			}
			dirtyA, err := c.DecompressInto(garbage, encA)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dirtyA, wantA) {
				t.Fatal("garbage in dst leaked into decode of A")
			}

			encB, err := c.CompressInto(aliasedA[:0], sigB)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encB.Data, freshB.Data) {
				t.Fatal("stale scratch content leaked into encoding of B")
			}
			gotB, err := c.DecompressInto(gotA[:0], encB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotB, wantB) {
				t.Fatal("stale float scratch leaked into decode of B")
			}

			// A retained-slice bug would have written B's bytes through a
			// held reference into A's old buffer; the clone taken before
			// reuse must still decode to A.
			reA, err := Decompress(c, Encoded{Codec: encA.Codec, Data: keptA, N: encA.N})
			if err != nil {
				t.Fatalf("cloned encoding of A no longer decodes: %v", err)
			}
			if !reflect.DeepEqual(reA, wantA) {
				t.Fatal("cloned encoding of A decodes to different values after scratch reuse")
			}

			// Compressing a third time into a fresh buffer must not touch
			// encB's bytes through any codec-retained reference.
			keptB := append([]byte(nil), encB.Data...)
			if _, err := c.CompressInto(nil, sigA); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encB.Data, keptB) {
				t.Fatal("later compression mutated an earlier encoding (retained slice)")
			}
		})
	}
}

// TestCompressConcurrentCallers: codec instances are shared by every
// goroutine in the process. Payloads encoded on four goroutines at once
// must equal the sequential ones byte for byte. In the first leg they go
// through Compress's pooled scratch, the goroutines mixing codecs, and must
// still equal them once every goroutine is done, so that no later encode
// wrote through a payload handed out earlier. In the second each goroutine
// brings its own dst through CompressInto, as the engines' scratch does,
// and all four run one codec at a time: no sync.Pool hand-off then orders
// their calls, so a codec that keeps dst in its receiver is a data race
// that -race reports (mutant BO3 of DESIGN.md §7).
func TestCompressConcurrentCallers(t *testing.T) {
	reg := DefaultRegistry(4)
	names := reg.Names()
	segs, _ := datasets.CBF(24, datasets.CBFConfig{Seed: 3})
	// Looked up once: the registry's read lock would order the goroutines'
	// calls for the race detector.
	codecs := make([]Codec, len(names))
	for i, name := range names {
		codecs[i], _ = reg.Lookup(name)
	}
	want := make([][]byte, len(names)*len(segs))
	for k := range want {
		enc, err := Compress(codecs[k/len(segs)], segs[k%len(segs)])
		if err != nil {
			t.Fatal(err)
		}
		want[k] = enc.Data
	}
	t.Run("pooled scratch", func(t *testing.T) {
		got := make([][][]byte, 4)
		var wg sync.WaitGroup
		for g := range got {
			got[g] = make([][]byte, len(want))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range want {
					k := (i + 37*g) % len(want) // each goroutine in its own order
					enc, err := Compress(codecs[k/len(segs)], segs[k%len(segs)])
					if err != nil {
						t.Error(err)
						return
					}
					got[g][k] = enc.Data
				}
			}()
		}
		wg.Wait()
		for g := range got {
			for k := range want {
				if !bytes.Equal(got[g][k], want[k]) {
					t.Fatalf("goroutine %d: %s payload of segment %d differs from the sequential one", g, names[k/len(segs)], k%len(segs))
				}
			}
		}
	})
	t.Run("own dst", func(t *testing.T) {
		for ci, c := range codecs {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := make([]byte, 0, 64)
					for i := range segs {
						k := ci*len(segs) + (i+7*g)%len(segs)
						enc, err := CompressInto(c, dst, segs[k%len(segs)])
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(enc.Data, want[k]) {
							t.Errorf("goroutine %d: %s payload of segment %d differs from the sequential one", g, names[ci], k%len(segs))
							return
						}
						dst = enc.Data[:0]
					}
				}()
			}
			wg.Wait()
		}
	})
}
