package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datasets"
)

// TestFFTTopKMatchesFullSort holds the heap selection in fftEncodeTopK to
// the definition it replaced: sort every bin by (weighted magnitude
// descending, index ascending), keep the first k. Spectra are drawn from a
// few distinct values so that ties, which only the index breaks, are
// everywhere; k runs from one bin to all of them.
func TestFFTTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 7, 32, 129} {
		half := make([]complex128, n/2+1)
		for trial := 0; trial < 20; trial++ {
			for i := range half {
				half[i] = complex(float64(rng.Intn(4)), float64(rng.Intn(3)))
			}
			type rank struct {
				idx int
				mag float64
			}
			ranked := make([]rank, len(half))
			for i, c := range half {
				ranked[i] = rank{i, cmplx.Abs(c)}
				if i != 0 && !(n%2 == 0 && i == n/2) {
					ranked[i].mag *= 2
				}
			}
			slices.SortFunc(ranked, func(a, b rank) int {
				if a.mag != b.mag {
					if a.mag > b.mag {
						return -1
					}
					return 1
				}
				return a.idx - b.idx
			})
			for k := 1; k <= len(half); k++ {
				want := make([]int, k)
				for i := range want {
					want[i] = ranked[i].idx
				}
				slices.Sort(want)
				wantData := putCountedHeader(nil, n, k, fftCoefBytes)
				for _, idx := range want {
					wantData = binary.LittleEndian.AppendUint32(wantData, uint32(idx))
					wantData = binary.LittleEndian.AppendUint32(wantData, math.Float32bits(float32(real(half[idx]))))
					wantData = binary.LittleEndian.AppendUint32(wantData, math.Float32bits(float32(imag(half[idx]))))
				}
				if got := fftEncodeTopK(nil, new(fftScratch), half, n, k); !bytes.Equal(got.Data, wantData) {
					t.Fatalf("n %d, k %d, spectrum %v: kept %x, want bins %v", n, k, half, got.Data, want)
				}
			}
		}
	}
}

// BenchmarkFFTCompressRatio is FFT as the offline recoder calls it: one
// 128-point CBF segment at the ratios either side of a halving under the
// offline_recode budget, where 5 and 12 of the 65 coefficients are kept.
func BenchmarkFFTCompressRatio(b *testing.B) {
	X, _ := datasets.CBF(1, datasets.CBFConfig{Seed: 7})
	f := NewFFT()
	for _, ratio := range []float64{0.07, 0.15} {
		b.Run(fmt.Sprint(ratio), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.CompressRatio(X[0], ratio); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
