package compress

import (
	"encoding/binary"
	"math"

	"repro/internal/bitio"
)

// buffCore is the shared implementation behind the lossless BUFF codec and
// its lossy variant (Liu et al., VLDB 2021). Values are quantized at the
// dataset's decimal precision, offset against the segment minimum, and
// stored as fixed-width integers. The lossy variant discards low-order
// ("insignificant") bits; because the integer part can never be discarded,
// BUFF-lossy has a hard minimum achievable ratio — the behaviour behind its
// failure below ratio ≈0.125 on CBF in the paper (Fig 7).
//
// Quantizing through an integer drops the sign of zero: BUFF and
// BUFF-lossy decode -0.0 as +0.0. Lossless here means value-equal (==),
// not bit-equal, which is also how the e2e benchmark compares decodes
// (see TestZeroSignContract).
//
// Layout: uvarint n | uvarint precision | zigzag-varint minQ | 1B width |
// 1B dropped | bit-packed deltas (width bits each).
type buffCore struct {
	precision int
	scale     float64
}

// encodeInto appends the encoding to dst[:0], sized exactly once the
// min/max scan has fixed the width. The quantization runs twice — once for
// the scan, once while packing — trading a handful of rounds per point for
// dropping the per-segment int64 staging slice, which is what keeps the
// speculative trial loop allocation-free.
func (b buffCore) encodeInto(dst []byte, values []float64, dropLimit int) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	minQ := int64(math.MaxInt64)
	maxQ := int64(math.MinInt64)
	for _, v := range values {
		q := int64(math.Round(v * b.scale))
		if q < minQ {
			minQ = q
		}
		if q > maxQ {
			maxQ = q
		}
	}
	width := bitsFor(uint64(maxQ - minQ))
	drop := dropLimit
	if drop >= width {
		drop = width - 1
	}
	if drop < 0 {
		drop = 0
	}
	storedWidth := width - drop

	n, prec, minZZ := uint64(len(values)), uint64(b.precision), bitio.ZigZag(minQ)
	out := growBytes(dst, uvarintLen(n)+uvarintLen(prec)+uvarintLen(minZZ)+2+(len(values)*storedWidth+7)/8)
	out = putUvarint(out, n)
	out = putUvarint(out, prec)
	out = putUvarint(out, minZZ)
	out = append(out, byte(width), byte(drop))
	var w bitio.Writer
	w.ResetBuf(out)
	for _, v := range values {
		q := int64(math.Round(v * b.scale))
		w.WriteBits(uint64(q-minQ)>>uint(drop), uint(storedWidth))
	}
	return Encoded{Data: w.Bytes(), N: len(values)}, nil
}

func (b buffCore) decodeInto(dst []float64, enc Encoded) ([]float64, error) {
	data := enc.Data
	count, n, err := readCount(data)
	if err != nil {
		return nil, err
	}
	data = data[n:]
	prec, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	data = data[n:]
	minZZ, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	data = data[n:]
	if len(data) < 2 {
		return nil, ErrCorrupt
	}
	width, drop := int(data[0]), int(data[1])
	if drop >= width || width > 64 {
		return nil, ErrCorrupt
	}
	data = data[2:]
	minQ := bitio.UnZigZag(minZZ)
	scale := math.Pow10(int(prec))
	storedWidth := width - drop
	// Reconstruct at the midpoint of the truncated range to halve the
	// worst-case error.
	var bias uint64
	if drop > 0 {
		bias = 1 << uint(drop-1)
	}
	var r bitio.Reader
	r.Reset(data)
	if uint64(cap(dst)) < count {
		dst = make([]float64, count)
	}
	out := dst[:count]
	for i := range out {
		d, err := r.ReadBits(uint(storedWidth))
		if err != nil {
			return nil, ErrCorrupt
		}
		out[i] = float64(int64(d<<uint(drop)+bias)+minQ) / scale
	}
	return out, nil
}

// buffHeaderSize returns the byte size of data's header (everything before
// the packed deltas) and its width and dropped-bits fields, or -1 if
// corrupt: the stored width, width - drop, must be in [1,64], which is what
// bitio.Reader.ReadBits takes.
func buffHeaderSize(data []byte) (hdr, width, drop int) {
	p := 0
	for _, field := range []int{0, 1, 2} {
		_ = field
		_, n := binary.Uvarint(data[p:])
		if n <= 0 {
			return -1, 0, 0
		}
		p += n
	}
	if len(data) < p+2 {
		return -1, 0, 0
	}
	width, drop = int(data[p]), int(data[p+1])
	if drop >= width || width > 64 {
		return -1, 0, 0
	}
	return p + 2, width, drop
}

// BUFF is the lossless bounded-float codec: exact round-trip for data
// quantized at the configured precision.
type BUFF struct{ core buffCore }

// NewBUFF returns a lossless BUFF codec for data at the given decimal
// precision.
func NewBUFF(precision int) *BUFF {
	return &BUFF{core: buffCore{precision: precision, scale: math.Pow10(precision)}}
}

// Name implements Codec.
func (*BUFF) Name() string { return "buff" }

// CompressInto implements Codec.
func (b *BUFF) CompressInto(dst []byte, values []float64) (Encoded, error) {
	enc, err := b.core.encodeInto(dst, values, 0)
	if err != nil {
		return Encoded{}, err
	}
	enc.Codec = b.Name()
	return enc, nil
}

// DecompressInto implements Codec.
func (b *BUFF) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != b.Name() {
		return nil, ErrCodecMismatch
	}
	return b.core.decodeInto(dst, enc)
}

// BUFFLossy is BUFF acting as a lossy codec by discarding insignificant
// low-order bits. It minimally perturbs values, which is why it wins on
// tree-based ML workloads at moderate ratios (paper Figs 5–7), but it
// cannot compress past the integer part of the value range.
type BUFFLossy struct{ core buffCore }

// NewBUFFLossy returns the lossy BUFF codec for the given precision.
func NewBUFFLossy(precision int) *BUFFLossy {
	return &BUFFLossy{core: buffCore{precision: precision, scale: math.Pow10(precision)}}
}

// Name implements Codec.
func (*BUFFLossy) Name() string { return "bufflossy" }

// CompressInto implements Codec (no truncation).
func (b *BUFFLossy) CompressInto(dst []byte, values []float64) (Encoded, error) {
	enc, err := b.core.encodeInto(dst, values, 0)
	if err != nil {
		return Encoded{}, err
	}
	enc.Codec = b.Name()
	return enc, nil
}

// DecompressInto implements Codec.
func (b *BUFFLossy) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != b.Name() {
		return nil, ErrCodecMismatch
	}
	return b.core.decodeInto(dst, enc)
}

// widthForRatio converts a target ratio into the per-value bit width
// available after the header.
func buffWidthForRatio(n int, headerBytes int, ratio float64) int {
	budgetBits := ratio*float64(8*n)*8 - float64(8*headerBytes)
	if budgetBits < 0 {
		return 0
	}
	return int(budgetBits) / n
}

// probeFull is the full-width encode CompressRatioInto and MinRatio size
// themselves by, written into pooled scratch (the caller hands it to
// byteScratch.Put once done with full.Data) instead of a buffer thrown
// away after its header is read. It stays a whole encode on purpose:
// reading width off a min/max scan instead is the one-pass BUFF-lossy that
// shortens edge_ml's Process below the frozen benchmark's share floor
// (cmd/adaedge-e2e/e2e_test.go:82; CHANGES.md PR 19 findings).
func (b buffCore) probeFull(values []float64) (full Encoded, scratch *[]byte, err error) {
	scratch = byteScratch.Get()
	if full, err = b.encodeInto(*scratch, values, 0); err == nil {
		*scratch = full.Data
	}
	return full, scratch, err
}

// CompressRatio implements LossyCodec.
func (b *BUFFLossy) CompressRatio(values []float64, ratio float64) (Encoded, error) {
	return b.CompressRatioInto(nil, values, ratio)
}

// CompressRatioInto implements LossyCodec.
func (b *BUFFLossy) CompressRatioInto(dst []byte, values []float64, ratio float64) (Encoded, error) {
	// A whole sizing encode, not a min/max scan: see probeFull for why.
	full, scratch, err := b.core.probeFull(values)
	defer byteScratch.Put(scratch)
	if err != nil {
		return Encoded{}, err
	}
	hdr, width, _ := buffHeaderSize(full.Data)
	if hdr < 0 {
		return Encoded{}, ErrCorrupt
	}
	target := buffWidthForRatio(len(values), hdr, ratio)
	if target >= width {
		// Nothing to truncate: the probe is the payload.
		return Encoded{Codec: b.Name(), Data: append(growBytes(dst, len(full.Data)), full.Data...), N: full.N}, nil
	}
	if target < 1 {
		return Encoded{}, ErrRatioInfeasible
	}
	enc, err := b.core.encodeInto(dst, values, width-target)
	if err != nil {
		return Encoded{}, err
	}
	enc.Codec = b.Name()
	return enc, nil
}

// MinRatio implements LossyCodec: at least one bit per value plus header.
func (b *BUFFLossy) MinRatio(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 1
	}
	// A whole sizing encode, not a min/max scan: see probeFull for why.
	full, scratch, err := b.core.probeFull(values)
	defer byteScratch.Put(scratch)
	if err != nil {
		return 1
	}
	hdr, width, _ := buffHeaderSize(full.Data)
	if hdr < 0 {
		return 1
	}
	// BUFF-lossy may only discard fraction bits: the integer part of the
	// value range must survive.
	fracBits := bitsFor(uint64(b.core.scale) - 1)
	minWidth := width - fracBits
	if minWidth < 1 {
		minWidth = 1
	}
	return (float64(8*hdr) + float64(n*minWidth)) / float64(8*8*n)
}

// Recode implements Recoder: RecodeInto into a fresh buffer.
func (b *BUFFLossy) Recode(enc Encoded, ratio float64) (Encoded, error) {
	return b.RecodeInto(nil, enc, ratio)
}

// RecodeInto implements Recoder: truncates additional low-order bits directly
// from the packed representation without reconstructing floats.
func (b *BUFFLossy) RecodeInto(dst []byte, enc Encoded, ratio float64) (Encoded, error) {
	if enc.Codec != b.Name() {
		return Encoded{}, ErrCodecMismatch
	}
	hdr, width, drop := buffHeaderSize(enc.Data)
	count, _, err := readCount(enc.Data)
	if hdr < 0 || err != nil {
		return Encoded{}, ErrCorrupt
	}
	// The payload's own count, as decodeInto: enc.N is metadata that travels
	// apart from the bytes. The bits it promises must be there before the
	// output is sized by it.
	n := int(count)
	curWidth := width - drop
	if len(enc.Data)-hdr < (n*curWidth+7)/8 {
		return Encoded{}, ErrCorrupt
	}
	target := buffWidthForRatio(n, hdr, ratio)
	if target < 1 {
		return Encoded{}, ErrRatioInfeasible
	}
	if target >= curWidth {
		return enc, nil
	}
	extra := curWidth - target
	// Header and repacked bits at their exact size: with a nil dst, the one
	// allocation.
	out := growBytes(dst, hdr+(n*target+7)/8)[:hdr]
	copy(out, enc.Data[:hdr])
	out[hdr-1] = byte(drop + extra) // update dropped-bits field
	var r bitio.Reader
	r.Reset(enc.Data[hdr:])
	var w bitio.Writer
	w.ResetBuf(out)
	for i := 0; i < n; i++ {
		v, err := r.ReadBits(uint(curWidth))
		if err != nil {
			return Encoded{}, ErrCorrupt
		}
		w.WriteBits(v>>uint(extra), uint(target))
	}
	return Encoded{Codec: b.Name(), Data: w.Bytes(), N: n}, nil
}
