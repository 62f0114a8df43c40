package compress

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"sort"
	"sync"

	"repro/internal/dsp"
)

// FFT is the Fourier-domain lossy codec (Faloutsos et al., SIGMOD 1994):
// the segment is transformed, the k highest-magnitude coefficients of the
// half-spectrum are kept, and reconstruction mirrors them hermitian-
// symmetrically before the inverse transform. Eliminating weak high
// frequencies gives low distortion on smooth signals and preserves
// high-dimensional distances, the property the paper calls out in §III-A.
//
// Layout: uvarint n | uvarint k | k × (4B index, 4B re f32, 4B im f32).
type FFT struct{}

// NewFFT returns the FFT codec.
func NewFFT() *FFT { return &FFT{} }

// Name implements Codec.
func (*FFT) Name() string { return "fft" }

const fftCoefBytes = 12

// CompressInto implements Codec at ratio 1.
func (f *FFT) CompressInto(dst []byte, values []float64) (Encoded, error) {
	return f.compressRatio(dst, values, 1.0)
}

// CompressRatio implements LossyCodec.
func (f *FFT) CompressRatio(values []float64, ratio float64) (Encoded, error) {
	return f.compressRatio(nil, values, ratio)
}

func (f *FFT) compressRatio(dst []byte, values []float64, ratio float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	if ratio <= 0 {
		return Encoded{}, ErrRatioInfeasible
	}
	n := len(values)
	budget := int(ratio * float64(8*n))
	k := (budget - 8) / fftCoefBytes
	half := n/2 + 1
	if k > half {
		k = half
	}
	if k < 1 {
		return Encoded{}, ErrRatioInfeasible
	}
	spec := dsp.FFTReal(values)
	return fftEncodeTopK(dst, spec[:half], n, k), nil
}

// fftEncodeTopK serializes into dst[:0] the k largest-magnitude
// coefficients of the half-spectrum. Real-signal weighting: interior
// coefficients appear twice in the full spectrum, so their effective
// energy is doubled when ranking.
func fftEncodeTopK(dst []byte, half []complex128, n, k int) Encoded {
	type coef struct {
		idx int
		mag float64
	}
	ranked := make([]coef, len(half))
	for i, c := range half {
		mag := cmplx.Abs(c)
		if i != 0 && !(n%2 == 0 && i == n/2) {
			mag *= 2
		}
		ranked[i] = coef{idx: i, mag: mag}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].mag != ranked[b].mag {
			return ranked[a].mag > ranked[b].mag
		}
		return ranked[a].idx < ranked[b].idx
	})
	if k > len(ranked) {
		k = len(ranked)
	}
	keep := ranked[:k]
	sort.Slice(keep, func(a, b int) bool { return keep[a].idx < keep[b].idx })

	out := putUvarint(dst[:0], uint64(n))
	out = putUvarint(out, uint64(k))
	var tmp [fftCoefBytes]byte
	for _, c := range keep {
		binary.LittleEndian.PutUint32(tmp[0:], uint32(c.idx))
		binary.LittleEndian.PutUint32(tmp[4:], math.Float32bits(float32(real(half[c.idx]))))
		binary.LittleEndian.PutUint32(tmp[8:], math.Float32bits(float32(imag(half[c.idx]))))
		out = append(out, tmp[:]...)
	}
	return Encoded{Codec: "fft", Data: out, N: n}
}

// MinRatio implements LossyCodec: a single coefficient.
func (*FFT) MinRatio(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 1
	}
	return (8 + fftCoefBytes) / float64(8*n)
}

// fftSpectra recycles the full-spectrum workspace of DecompressInto.
var fftSpectra = sync.Pool{New: func() any { return new([]complex128) }}

// DecompressInto implements Codec.
func (f *FFT) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != f.Name() {
		return nil, ErrCodecMismatch
	}
	n, k, recs, err := countedHeader(enc.Data, fftCoefBytes)
	if err != nil {
		return nil, err
	}
	ws := fftSpectra.Get().(*[]complex128)
	defer fftSpectra.Put(ws)
	if cap(*ws) < n {
		*ws = make([]complex128, n)
	}
	spec := (*ws)[:n]
	clear(spec)
	for i := 0; i < k; i++ {
		c, err := fftCoefAt(recs, i, n)
		if err != nil {
			return nil, err
		}
		spec[c.idx] = c.val
		if c.idx != 0 && !(n%2 == 0 && c.idx == n/2) {
			spec[n-c.idx] = cmplx.Conj(c.val)
		}
	}
	return dsp.IFFTRealInto(growFloats(dst, n), spec), nil
}

type fftCoef struct {
	idx int
	val complex128
}

// fftCoefAt decodes record i, rejecting a bin index outside the n-point
// spectrum.
func fftCoefAt(recs []byte, i, n int) (fftCoef, error) {
	off := i * fftCoefBytes
	idx := int(binary.LittleEndian.Uint32(recs[off:]))
	if idx >= n {
		return fftCoef{}, ErrCorrupt
	}
	re := math.Float32frombits(binary.LittleEndian.Uint32(recs[off+4:]))
	im := math.Float32frombits(binary.LittleEndian.Uint32(recs[off+8:]))
	return fftCoef{idx: idx, val: complex(float64(re), float64(im))}, nil
}

func fftParse(data []byte) (n int, coefs []fftCoef, err error) {
	n, k, recs, err := countedHeader(data, fftCoefBytes)
	if err != nil {
		return 0, nil, err
	}
	coefs = make([]fftCoef, k)
	for i := range coefs {
		if coefs[i], err = fftCoefAt(recs, i, n); err != nil {
			return 0, nil, err
		}
	}
	return n, coefs, nil
}

// Recode implements Recoder: drops the weakest retained coefficients
// directly from the encoded representation — "further compress the
// FFT-encoded segments by removing additional high-frequency components"
// (paper §IV-E) — without any transform.
func (f *FFT) Recode(enc Encoded, ratio float64) (Encoded, error) {
	if enc.Codec != f.Name() {
		return Encoded{}, ErrCodecMismatch
	}
	n, coefs, err := fftParse(enc.Data)
	if err != nil {
		return Encoded{}, err
	}
	budget := int(ratio * float64(8*n))
	k := (budget - 8) / fftCoefBytes
	if k < 1 {
		return Encoded{}, ErrRatioInfeasible
	}
	if k >= len(coefs) {
		return enc, nil
	}
	half := make([]complex128, n/2+1)
	for _, c := range coefs {
		half[c.idx] = c.val
	}
	return fftEncodeTopK(nil, half, n, k), nil
}
