package compress

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/dsp"
	"repro/internal/freelist"
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
	return f.CompressRatioInto(dst, values, 1.0)
}

// CompressRatio implements LossyCodec.
func (f *FFT) CompressRatio(values []float64, ratio float64) (Encoded, error) {
	return f.CompressRatioInto(nil, values, ratio)
}

// CompressRatioInto implements LossyCodec.
func (f *FFT) CompressRatioInto(dst []byte, values []float64, ratio float64) (Encoded, error) {
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
	ws := fftScratches.Get()
	defer fftScratches.Put(ws)
	ws.reserve(n, half)
	ws.spec = dsp.FFTRealInto(ws.spec, values)
	return fftEncodeTopK(dst, ws, ws.spec[:half], n, k), nil
}

// fftScratch is the workspace of one transform: the spectrum (the full one
// for DecompressInto, the half that is ranked for encode and Recode) and
// the coefficients the ranking keeps.
type fftScratch struct {
	spec []complex128
	keep []fftRank
}

var fftScratches = freelist.New(func(ws *fftScratch) int { return 16*cap(ws.spec) + 16*cap(ws.keep) })

// reserve sizes the workspace for an n-point segment whose ranking keeps up
// to keep bins, each array in one allocation: the spectrum at the full n
// every entry point uses, so a Recode (which ranks half of it) followed by
// an encode or a decode does not grow it twice, and a workspace born empty
// (or one the free list dropped) does not grow the ranking through
// doublings.
func (ws *fftScratch) reserve(n, keep int) {
	if cap(ws.spec) < n {
		ws.spec = make([]complex128, n)
	}
	if cap(ws.keep) < keep {
		ws.keep = make([]fftRank, 0, keep)
	}
}

// fftRank is one half-spectrum bin with its ranking weight.
type fftRank struct {
	idx int
	mag float64
}

// before is the ranking: magnitude descending, index ascending on ties. A
// total order, so the kept set does not depend on how it is selected.
func (a fftRank) before(b fftRank) bool {
	return a.mag > b.mag || a.mag == b.mag && a.idx < b.idx
}

// fftEncodeTopK serializes into dst[:0] the k largest-magnitude
// coefficients of the half-spectrum. Real-signal weighting: interior
// coefficients appear twice in the full spectrum, so their effective
// energy is doubled when ranking.
//
// The k are selected through a heap in ws whose root is the weakest kept so
// far, not by sorting all the bins to keep a tenth of them: a bin that does
// not rank before the root costs one comparison.
func fftEncodeTopK(dst []byte, ws *fftScratch, half []complex128, n, k int) Encoded {
	keep := ws.keep[:0]
	for i, c := range half {
		r := fftRank{idx: i, mag: cmplx.Abs(c)}
		if i != 0 && !(n%2 == 0 && i == n/2) {
			r.mag *= 2
		}
		switch {
		case len(keep) < k:
			keep = append(keep, r)
			for j := len(keep) - 1; j > 0; {
				parent := (j - 1) / 2
				if !keep[parent].before(keep[j]) {
					break
				}
				keep[parent], keep[j] = keep[j], keep[parent]
				j = parent
			}
		case r.before(keep[0]):
			keep[0] = r
			for j := 0; ; {
				weaker := 2*j + 1 // the child ranking after the other
				if weaker+1 < len(keep) && keep[weaker].before(keep[weaker+1]) {
					weaker++
				}
				if weaker >= len(keep) || !keep[j].before(keep[weaker]) {
					break
				}
				keep[j], keep[weaker] = keep[weaker], keep[j]
				j = weaker
			}
		}
	}
	ws.keep = keep
	slices.SortFunc(keep, func(a, b fftRank) int { return a.idx - b.idx })

	out := putCountedHeader(dst, n, len(keep), fftCoefBytes)
	for _, c := range keep {
		out = binary.LittleEndian.AppendUint32(out, uint32(c.idx))
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(real(half[c.idx]))))
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(imag(half[c.idx]))))
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

// DecompressInto implements Codec.
func (f *FFT) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != f.Name() {
		return nil, ErrCodecMismatch
	}
	n, k, recs, err := fftHeader(enc)
	if err != nil {
		return nil, err
	}
	ws := fftScratches.Get()
	defer fftScratches.Put(ws)
	spec := ws.zeroed(n)
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

// fftHeader is countedHeader for an FFT payload, plus the bound every
// reader of one applies before it does any work that grows with n. The count
// still comes from the payload, but the payload alone cannot vouch for it: a
// forged n of maxDecodePoints in front of no coefficient at all would
// "decode", after an inverse transform of sixteen million zeros. So the
// payload must hold a coefficient (the encoder never writes fewer than one),
// and where the caller knows the point count, as the collector does from
// the frame, n must be that count.
func fftHeader(enc Encoded) (n, k int, recs []byte, err error) {
	n, k, recs, err = countedHeader(enc.Data, fftCoefBytes)
	if err == nil && (k < 1 || enc.N != 0 && enc.N != n) {
		err = ErrCorrupt
	}
	return n, k, recs, err
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

// zeroed returns n cleared bins of the workspace spectrum.
func (ws *fftScratch) zeroed(n int) []complex128 {
	if cap(ws.spec) < n {
		ws.spec = make([]complex128, n)
	}
	spec := ws.spec[:n]
	clear(spec)
	return spec
}

// Recode implements Recoder: RecodeInto into a fresh buffer.
func (f *FFT) Recode(enc Encoded, ratio float64) (Encoded, error) {
	return f.RecodeInto(nil, enc, ratio)
}

// RecodeInto implements Recoder: drops the weakest retained coefficients
// directly from the encoded representation — "further compress the
// FFT-encoded segments by removing additional high-frequency components"
// (paper §IV-E) — without any transform.
func (f *FFT) RecodeInto(dst []byte, enc Encoded, ratio float64) (Encoded, error) {
	if enc.Codec != f.Name() {
		return Encoded{}, ErrCodecMismatch
	}
	n, count, recs, err := fftHeader(enc)
	if err != nil {
		return Encoded{}, err
	}
	ws := fftScratches.Get()
	defer fftScratches.Put(ws)
	// The encoder only writes half-spectrum bins; one above n/2 (which
	// DecompressInto would mirror) is rejected rather than indexed. The
	// ranking keeps fewer bins than the payload holds, and a forged n
	// costs the spectrum a decode of it already allocates.
	ws.reserve(n, min(count, n/2+1))
	half := ws.zeroed(n/2 + 1)
	for i := 0; i < count; i++ {
		c, err := fftCoefAt(recs, i, len(half))
		if err != nil {
			return Encoded{}, err
		}
		half[c.idx] = c.val
	}
	budget := int(ratio * float64(8*n))
	k := (budget - 8) / fftCoefBytes
	if k < 1 {
		return Encoded{}, ErrRatioInfeasible
	}
	if k >= count {
		return enc, nil
	}
	return fftEncodeTopK(dst, ws, half, n, k), nil
}
