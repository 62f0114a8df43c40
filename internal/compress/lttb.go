package compress

import (
	"encoding/binary"
	"math"

	"repro/internal/freelist"
)

// LTTB implements Largest-Triangle-Three-Buckets downsampling (Steinarsson
// 2013, a variant of the Visvalingam–Whyatt line-generalization algorithm
// the paper cites): the series is divided into buckets and from each bucket
// the point forming the largest triangle with its neighbours is kept. The
// result preserves the visual shape of the signal, which makes it the
// dashboard-query representation used by TVStore and TimescaleDB.
//
// Layout: uvarint n | uvarint k | k × (4B index, 4B value f32).
type LTTB struct{}

// NewLTTB returns the LTTB codec.
func NewLTTB() *LTTB { return &LTTB{} }

// Name implements Codec.
func (*LTTB) Name() string { return "lttb" }

const lttbPointBytes = 8

// CompressInto implements Codec at ratio 1.
func (l *LTTB) CompressInto(dst []byte, values []float64) (Encoded, error) {
	return l.CompressRatioInto(dst, values, 1.0)
}

// CompressRatio implements LossyCodec.
func (l *LTTB) CompressRatio(values []float64, ratio float64) (Encoded, error) {
	return l.CompressRatioInto(nil, values, ratio)
}

// CompressRatioInto implements LossyCodec.
func (l *LTTB) CompressRatioInto(dst []byte, values []float64, ratio float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	if ratio <= 0 {
		return Encoded{}, ErrRatioInfeasible
	}
	n := len(values)
	budget := int(ratio * float64(8*n))
	k := (budget - 8) / lttbPointBytes
	if k > n {
		k = n
	}
	if k < 2 {
		if n == 1 {
			k = 1
		} else {
			return Encoded{}, ErrRatioInfeasible
		}
	}
	ws := lttbScratches.Get()
	defer lttbScratches.Put(ws)
	ws.reserve(n)
	ws.sel = lttbSelect(ws.sel, values, k)
	out := putCountedHeader(dst, n, len(ws.sel), lttbPointBytes)
	for _, i := range ws.sel {
		out = lttbAppendPoint(out, uint32(i), values[i])
	}
	return Encoded{Codec: l.Name(), Data: out, N: n}, nil
}

// lttbScratch is the workspace of one encode or recode: the sweep's
// selection and, for Recode, the kept values decoded from the records.
type lttbScratch struct {
	sel  []int
	vals []float64
}

var lttbScratches = freelist.New(func(ws *lttbScratch) int { return 8*cap(ws.sel) + 8*cap(ws.vals) })

// reserve sizes the selection for up to n indices in one allocation, so a
// workspace born empty (or one the free list dropped) does not grow
// through doublings: n is the segment's length for an encode and the
// payload's point count for a Recode, which never selects more.
func (ws *lttbScratch) reserve(n int) {
	if cap(ws.sel) < n {
		ws.sel = make([]int, 0, n)
	}
}

func lttbAppendPoint(out []byte, idx uint32, v float64) []byte {
	out = binary.LittleEndian.AppendUint32(out, idx)
	return binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v)))
}

// lttbSelect appends to idxs[:0] the k indices chosen by the LTTB sweep
// (first and last always included).
func lttbSelect(idxs []int, values []float64, k int) []int {
	n := len(values)
	idxs = idxs[:0]
	if k >= n {
		for i := 0; i < n; i++ {
			idxs = append(idxs, i)
		}
		return idxs
	}
	if k == 1 {
		return append(idxs, 0)
	}
	idxs = append(idxs, 0)
	buckets := k - 2
	prev := 0
	for b := 0; b < buckets; b++ {
		// Current bucket covers [start,end); the "next bucket" average is
		// the third triangle vertex.
		start := 1 + b*(n-2)/buckets
		end := 1 + (b+1)*(n-2)/buckets
		nstart, nend := end, 1+(b+2)*(n-2)/buckets
		if b == buckets-1 {
			nstart, nend = n-1, n
		}
		var avgX, avgY float64
		for i := nstart; i < nend; i++ {
			avgX += float64(i)
			avgY += values[i]
		}
		cnt := float64(nend - nstart)
		avgX /= cnt
		avgY /= cnt

		bestArea := -1.0
		best := start
		px, py := float64(prev), values[prev]
		for i := start; i < end; i++ {
			area := math.Abs((px-avgX)*(values[i]-py) - (px-float64(i))*(avgY-py))
			if area > bestArea {
				bestArea = area
				best = i
			}
		}
		idxs = append(idxs, best)
		prev = best
	}
	return append(idxs, n-1)
}

// MinRatio implements LossyCodec: two endpoints.
func (*LTTB) MinRatio(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 1
	}
	return (8 + 2*lttbPointBytes) / float64(8*n)
}

// DecompressInto implements Codec: linear interpolation between kept
// points, flat before the first and after the last.
func (l *LTTB) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != l.Name() {
		return nil, ErrCodecMismatch
	}
	n, k, recs, err := countedHeader(enc.Data, lttbPointBytes)
	if err != nil || k == 0 {
		return nil, ErrCorrupt
	}
	out := growFloats(dst, n)[:n]
	i0, v0, err := lttbPointAt(recs, 0, n, -1)
	if err != nil {
		return nil, err
	}
	for i := 0; i <= i0; i++ {
		out[i] = v0
	}
	for p := 1; p < k; p++ {
		i1, v1, err := lttbPointAt(recs, p, n, i0)
		if err != nil {
			return nil, err
		}
		span := float64(i1 - i0)
		for i := i0; i <= i1; i++ {
			t := float64(i-i0) / span
			out[i] = v0 + t*(v1-v0)
		}
		i0, v0 = i1, v1
	}
	for i := i0 + 1; i < n; i++ {
		out[i] = v0
	}
	return out, nil
}

// lttbPointAt decodes record i, rejecting an index outside the n-point
// series or not above prev, the previous record's index.
func lttbPointAt(recs []byte, i, n, prev int) (idx int, val float64, err error) {
	off := i * lttbPointBytes
	idx = int(binary.LittleEndian.Uint32(recs[off:]))
	if idx >= n || idx <= prev {
		return 0, 0, ErrCorrupt
	}
	return idx, float64(math.Float32frombits(binary.LittleEndian.Uint32(recs[off+4:]))), nil
}

// Recode implements Recoder: RecodeInto into a fresh buffer.
func (l *LTTB) Recode(enc Encoded, ratio float64) (Encoded, error) {
	return l.RecodeInto(nil, enc, ratio)
}

// RecodeInto implements Recoder: the LTTB sweep is re-run over the already
// kept (index, value) points, thinning them further without reconstructing
// the raw series.
func (l *LTTB) RecodeInto(dst []byte, enc Encoded, ratio float64) (Encoded, error) {
	if enc.Codec != l.Name() {
		return Encoded{}, ErrCodecMismatch
	}
	n, count, recs, err := countedHeader(enc.Data, lttbPointBytes)
	if err != nil || count == 0 {
		return Encoded{}, ErrCorrupt
	}
	ws := lttbScratches.Get()
	defer lttbScratches.Put(ws)
	ws.reserve(count)
	ws.vals = growFloats(ws.vals, count)
	for i, prev := 0, -1; i < count; i++ {
		idx, v, err := lttbPointAt(recs, i, n, prev)
		if err != nil {
			return Encoded{}, err
		}
		ws.vals, prev = append(ws.vals, v), idx
	}
	budget := int(ratio * float64(8*n))
	k := (budget - 8) / lttbPointBytes
	if k < 2 {
		return Encoded{}, ErrRatioInfeasible
	}
	if k >= count {
		return enc, nil
	}
	ws.sel = lttbSelect(ws.sel, ws.vals, k)
	out := putCountedHeader(dst, n, len(ws.sel), lttbPointBytes)
	for _, si := range ws.sel {
		out = lttbAppendPoint(out, binary.LittleEndian.Uint32(recs[si*lttbPointBytes:]), ws.vals[si])
	}
	return Encoded{Codec: l.Name(), Data: out, N: n}, nil
}
