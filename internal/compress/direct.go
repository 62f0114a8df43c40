package compress

import (
	"encoding/binary"
	"math"

	"repro/internal/bitio"
)

// Direct (in-situ) aggregation: computing aggregates straight from the
// encoded representation without materializing the decompressed values.
// The paper's related work (§II) highlights this capability — Abadi's
// in-situ execution on compressed data and CodecDB's "specialized
// operators operating on encoded columns directly" — and AdaEdge executes
// aggregation queries over compressed segments (§IV-C). Codecs implement
// the interfaces they can serve exactly; the contract is equality with
// decompress-then-aggregate (not with the raw data — for lossy codecs the
// decompressed form *is* the queryable data).

// DirectSummer computes the sum of the decompressed values from the
// encoded form.
type DirectSummer interface {
	SumEncoded(enc Encoded) (float64, error)
}

// DirectMinMaxer computes min and max of the decompressed values from the
// encoded form.
type DirectMinMaxer interface {
	MinMaxEncoded(enc Encoded) (min, max float64, err error)
}

// --- PAA -------------------------------------------------------------------

// SumEncoded implements DirectSummer: Σ mean_i × window_i.
func (p *PAA) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != p.Name() {
		return 0, ErrCodecMismatch
	}
	n, window, means, err := paaParse(enc.Data)
	if err != nil {
		return 0, err
	}
	var sum float64
	remaining := n
	for _, m := range means {
		w := window
		if remaining < w {
			w = remaining
		}
		sum += m * float64(w)
		remaining -= w
	}
	return sum, nil
}

// MinMaxEncoded implements DirectMinMaxer: extrema over the stored means.
func (p *PAA) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != p.Name() {
		return 0, 0, ErrCodecMismatch
	}
	_, _, means, err := paaParse(enc.Data)
	if err != nil {
		return 0, 0, err
	}
	return minMax(means)
}

// --- RRD-sample -------------------------------------------------------------

// SumEncoded implements DirectSummer.
func (r *RRDSample) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != r.Name() {
		return 0, ErrCodecMismatch
	}
	n, window, samples, err := paaParse(enc.Data) // same layout as PAA
	if err != nil {
		return 0, err
	}
	var sum float64
	remaining := n
	for _, s := range samples {
		w := window
		if remaining < w {
			w = remaining
		}
		sum += s * float64(w)
		remaining -= w
	}
	return sum, nil
}

// MinMaxEncoded implements DirectMinMaxer.
func (r *RRDSample) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != r.Name() {
		return 0, 0, ErrCodecMismatch
	}
	_, _, samples, err := paaParse(enc.Data)
	if err != nil {
		return 0, 0, err
	}
	return minMax(samples)
}

// --- PLA --------------------------------------------------------------------

// SumEncoded implements DirectSummer using the closed form
// Σ(a·t + b) = a·L(L−1)/2 + b·L per piece.
func (p *PLA) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != p.Name() {
		return 0, ErrCodecMismatch
	}
	n, pieceLen, pieces, err := plaParse(enc.Data)
	if err != nil {
		return 0, err
	}
	var sum float64
	for pi, pc := range pieces {
		l := pieceLen
		if start := pi * pieceLen; start+l > n {
			l = n - start
		}
		sum += pc.slope*sum1(l) + pc.intercept*float64(l)
	}
	return sum, nil
}

// MinMaxEncoded implements DirectMinMaxer: a line's extrema sit at its
// endpoints.
func (p *PLA) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != p.Name() {
		return 0, 0, ErrCodecMismatch
	}
	n, pieceLen, pieces, err := plaParse(enc.Data)
	if err != nil {
		return 0, 0, err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for pi, pc := range pieces {
		l := pieceLen
		if start := pi * pieceLen; start+l > n {
			l = n - start
		}
		first := pc.intercept
		last := pc.slope*float64(l-1) + pc.intercept
		lo = math.Min(lo, math.Min(first, last))
		hi = math.Max(hi, math.Max(first, last))
	}
	return lo, hi, nil
}

// --- FFT --------------------------------------------------------------------

// SumEncoded implements DirectSummer: the sum of the reconstruction is the
// real part of the DC coefficient (bin 0), by definition of the inverse
// DFT. A dropped DC bin means the reconstruction sums to zero.
func (f *FFT) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != f.Name() {
		return 0, ErrCodecMismatch
	}
	_, coefs, err := fftParse(enc.Data)
	if err != nil {
		return 0, err
	}
	for _, c := range coefs {
		if c.idx == 0 {
			return real(c.val), nil
		}
	}
	return 0, nil
}

// --- LTTB -------------------------------------------------------------------

// SumEncoded implements DirectSummer: the reconstruction is piecewise
// linear between kept points, so each span contributes a trapezoid.
func (l *LTTB) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != l.Name() {
		return 0, ErrCodecMismatch
	}
	n, idxs, vals, err := lttbParse(enc.Data)
	if err != nil {
		return 0, err
	}
	if len(idxs) == 1 {
		return vals[0] * float64(n), nil
	}
	var sum float64
	// Flat head before the first kept point, excluding the point itself.
	sum += vals[0] * float64(idxs[0])
	for seg := 0; seg < len(idxs)-1; seg++ {
		i0, i1 := idxs[seg], idxs[seg+1]
		v0, v1 := vals[seg], vals[seg+1]
		span := i1 - i0
		// Points i0..i1-1: v(t) = v0 + (t-i0)/span · (v1-v0).
		steps := float64(span)
		sum += v0*steps + (v1-v0)*sum1(span)/steps
	}
	// The final kept point and any flat tail after it.
	last := len(idxs) - 1
	sum += vals[last] * float64(n-idxs[last])
	return sum, nil
}

// MinMaxEncoded implements DirectMinMaxer: interpolation never exceeds the
// kept points.
func (l *LTTB) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != l.Name() {
		return 0, 0, ErrCodecMismatch
	}
	_, _, vals, err := lttbParse(enc.Data)
	if err != nil {
		return 0, 0, err
	}
	return minMax(vals)
}

// --- BUFF / BUFF-lossy --------------------------------------------------------

// buffMinMaxSum scans the packed fixed-width integers without building a
// float slice.
func buffMinMaxSum(enc Encoded) (lo, hi, sum float64, err error) {
	hdr, width, drop := buffHeaderSize(enc.Data)
	if hdr < 0 {
		return 0, 0, 0, ErrCorrupt
	}
	data := enc.Data
	_, c1 := binary.Uvarint(data)
	prec, c2 := binary.Uvarint(data[c1:])
	minZZ, _ := binary.Uvarint(data[c1+c2:])
	minQ := bitio.UnZigZag(minZZ)
	scale := math.Pow10(int(prec))
	storedWidth := width - drop
	var bias uint64
	if drop > 0 {
		bias = 1 << uint(drop-1)
	}
	r := bitio.NewReader(enc.Data[hdr:])
	loD, hiD := uint64(math.MaxUint64), uint64(0)
	toFloat := func(d uint64) float64 {
		return float64(int64(d<<uint(drop)+bias)+minQ) / scale
	}
	for i := 0; i < enc.N; i++ {
		d, err := r.ReadBits(uint(storedWidth))
		if err != nil {
			return 0, 0, 0, ErrCorrupt
		}
		if d < loD {
			loD = d
		}
		if d > hiD {
			hiD = d
		}
		sum += toFloat(d)
	}
	lo, hi = toFloat(loD), toFloat(hiD)
	return lo, hi, sum, nil
}

// SumEncoded implements DirectSummer.
func (b *BUFF) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != b.Name() {
		return 0, ErrCodecMismatch
	}
	_, _, sum, err := buffMinMaxSum(enc)
	return sum, err
}

// MinMaxEncoded implements DirectMinMaxer.
func (b *BUFF) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != b.Name() {
		return 0, 0, ErrCodecMismatch
	}
	lo, hi, _, err := buffMinMaxSum(enc)
	return lo, hi, err
}

// SumEncoded implements DirectSummer.
func (b *BUFFLossy) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != b.Name() {
		return 0, ErrCodecMismatch
	}
	_, _, sum, err := buffMinMaxSum(enc)
	return sum, err
}

// MinMaxEncoded implements DirectMinMaxer.
func (b *BUFFLossy) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != b.Name() {
		return 0, 0, ErrCodecMismatch
	}
	lo, hi, _, err := buffMinMaxSum(enc)
	return lo, hi, err
}

// --- Dict -------------------------------------------------------------------

// MinMaxEncoded implements DirectMinMaxer over the dictionary alone —
// every stored code references a dictionary value, so extrema live there.
func (d *Dict) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != d.Name() {
		return 0, 0, ErrCodecMismatch
	}
	data := enc.Data
	dictCount, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, ErrCorrupt
	}
	data = data[n:]
	if uint64(len(data)) < dictCount*8 {
		return 0, 0, ErrCorrupt
	}
	vals := make([]float64, dictCount)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return minMax(vals)
}

func minMax(vals []float64) (float64, float64, error) {
	if len(vals) == 0 {
		return 0, 0, ErrEmptyInput
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, nil
}
