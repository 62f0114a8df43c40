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

// --- PAA / RRD-sample -----------------------------------------------------------

// replicatedSum sums the reconstruction of the layout PAA and RRD-sample
// share, Σ value_i × window_i, reading the records in place.
func replicatedSum(data []byte) (float64, error) {
	n, window, recs, err := windowedHeader(data, 8)
	if err != nil {
		return 0, err
	}
	var sum float64
	for remaining := n; len(recs) > 0; recs = recs[8:] {
		w := min(window, remaining)
		sum += f64At(recs) * float64(w)
		remaining -= w
	}
	return sum, nil
}

// replicatedMinMax returns the extrema over the stored values.
func replicatedMinMax(data []byte) (float64, float64, error) {
	_, _, recs, err := windowedHeader(data, 8)
	if err != nil {
		return 0, 0, err
	}
	return minMaxF64s(recs)
}

// SumEncoded implements DirectSummer.
func (p *PAA) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != p.Name() {
		return 0, ErrCodecMismatch
	}
	return replicatedSum(enc.Data)
}

// MinMaxEncoded implements DirectMinMaxer.
func (p *PAA) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != p.Name() {
		return 0, 0, ErrCodecMismatch
	}
	return replicatedMinMax(enc.Data)
}

// SumEncoded implements DirectSummer.
func (r *RRDSample) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != r.Name() {
		return 0, ErrCodecMismatch
	}
	return replicatedSum(enc.Data)
}

// MinMaxEncoded implements DirectMinMaxer.
func (r *RRDSample) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != r.Name() {
		return 0, 0, ErrCodecMismatch
	}
	return replicatedMinMax(enc.Data)
}

// --- PLA --------------------------------------------------------------------

// SumEncoded implements DirectSummer using the closed form
// Σ(a·t + b) = a·L(L−1)/2 + b·L per piece.
func (p *PLA) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != p.Name() {
		return 0, ErrCodecMismatch
	}
	n, pieceLen, recs, err := windowedHeader(enc.Data, plaPieceBytes)
	if err != nil {
		return 0, err
	}
	var sum float64
	for start := 0; len(recs) > 0; start, recs = start+pieceLen, recs[plaPieceBytes:] {
		l := min(pieceLen, n-start)
		sum += f64At(recs)*sum1(l) + f64At(recs[8:])*float64(l)
	}
	return sum, nil
}

// MinMaxEncoded implements DirectMinMaxer: a line's extrema sit at its
// endpoints.
func (p *PLA) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != p.Name() {
		return 0, 0, ErrCodecMismatch
	}
	n, pieceLen, recs, err := windowedHeader(enc.Data, plaPieceBytes)
	if err != nil {
		return 0, 0, err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for start := 0; len(recs) > 0; start, recs = start+pieceLen, recs[plaPieceBytes:] {
		l := min(pieceLen, n-start)
		first := f64At(recs[8:])
		last := f64At(recs)*float64(l-1) + first
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
	n, k, recs, err := fftHeader(enc)
	if err != nil {
		return 0, err
	}
	var dc float64
	for i := 0; i < k; i++ {
		c, err := fftCoefAt(recs, i, n)
		if err != nil {
			return 0, err
		}
		if c.idx == 0 {
			dc = real(c.val) // a forged second bin 0 overwrites, as in DecompressInto
		}
	}
	return dc, nil
}

// --- LTTB -------------------------------------------------------------------

// SumEncoded implements DirectSummer: the reconstruction is piecewise
// linear between kept points, so each span contributes a trapezoid.
func (l *LTTB) SumEncoded(enc Encoded) (float64, error) {
	if enc.Codec != l.Name() {
		return 0, ErrCodecMismatch
	}
	n, k, recs, err := countedHeader(enc.Data, lttbPointBytes)
	if err != nil || k == 0 {
		return 0, ErrCorrupt
	}
	i0, v0, err := lttbPointAt(recs, 0, n, -1)
	if err != nil {
		return 0, err
	}
	if k == 1 {
		return v0 * float64(n), nil
	}
	// Flat head before the first kept point, excluding the point itself.
	sum := v0 * float64(i0)
	for p := 1; p < k; p++ {
		i1, v1, err := lttbPointAt(recs, p, n, i0)
		if err != nil {
			return 0, err
		}
		// Points i0..i1-1: v(t) = v0 + (t-i0)/span · (v1-v0).
		span := i1 - i0
		sum += v0*float64(span) + (v1-v0)*sum1(span)/float64(span)
		i0, v0 = i1, v1
	}
	// The final kept point and any flat tail after it.
	return sum + v0*float64(n-i0), nil
}

// MinMaxEncoded implements DirectMinMaxer: interpolation never exceeds the
// kept points.
func (l *LTTB) MinMaxEncoded(enc Encoded) (float64, float64, error) {
	if enc.Codec != l.Name() {
		return 0, 0, ErrCodecMismatch
	}
	n, k, recs, err := countedHeader(enc.Data, lttbPointBytes)
	if err != nil || k == 0 {
		return 0, 0, ErrCorrupt
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for p, prev := 0, -1; p < k; p++ {
		idx, v, err := lttbPointAt(recs, p, n, prev)
		if err != nil {
			return 0, 0, err
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		prev = idx
	}
	return lo, hi, nil
}

// --- BUFF / BUFF-lossy --------------------------------------------------------

// buffMinMaxSum scans the packed fixed-width integers without building a
// float slice.
func buffMinMaxSum(enc Encoded) (lo, hi, sum float64, err error) {
	hdr, width, drop := buffHeaderSize(enc.Data)
	count, c1, err := readCount(enc.Data)
	if hdr < 0 || err != nil {
		return 0, 0, 0, ErrCorrupt
	}
	data := enc.Data
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
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := uint64(0); i < count; i++ {
		d, err := r.ReadBits(uint(storedWidth))
		if err != nil {
			return 0, 0, 0, ErrCorrupt
		}
		// Extrema over the values, not the deltas: a forged 64-bit width
		// wraps the shift, and the decode with it.
		v := float64(int64(d<<uint(drop)+bias)+minQ) / scale
		lo, hi = min(lo, v), max(hi, v)
		sum += v
	}
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
	return minMaxF64s(data[:dictCount*8])
}

// minMaxF64s returns the extrema of the little-endian float64s packed in
// recs, read in place.
func minMaxF64s(recs []byte) (float64, float64, error) {
	if len(recs) == 0 {
		return 0, 0, ErrEmptyInput
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for ; len(recs) > 0; recs = recs[8:] {
		v := f64At(recs)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, nil
}
