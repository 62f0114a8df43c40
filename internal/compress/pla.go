package compress

// PLA implements Piecewise Linear Approximation (Shatkay & Zdonik, ICDE
// 1996): the series is cut into fixed-length pieces and each piece stores
// the least-squares line through its points. The piece budget is derived
// from the target ratio. PLA preserves trends and extrema well, which makes
// it the winner for Max aggregation in the paper (Fig 9).
//
// Layout: uvarint n | uvarint pieceLen | pieces ×(slope f64, intercept f64).
type PLA struct{}

// NewPLA returns the PLA codec.
func NewPLA() *PLA { return &PLA{} }

// Name implements Codec.
func (*PLA) Name() string { return "pla" }

const plaPieceBytes = 16

// CompressInto implements Codec at ratio 1 (pieces of two points: exact
// lines).
func (p *PLA) CompressInto(dst []byte, values []float64) (Encoded, error) {
	return p.CompressRatioInto(dst, values, 1.0)
}

// CompressRatio implements LossyCodec.
func (p *PLA) CompressRatio(values []float64, ratio float64) (Encoded, error) {
	return p.CompressRatioInto(nil, values, ratio)
}

// CompressRatioInto implements LossyCodec.
func (p *PLA) CompressRatioInto(dst []byte, values []float64, ratio float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	if ratio <= 0 {
		return Encoded{}, ErrRatioInfeasible
	}
	pieceLen := plaPieceLenForRatio(len(values), ratio)
	out := putWindowedHeader(dst, len(values), pieceLen, plaPieceBytes)
	for start := 0; start < len(values); start += pieceLen {
		end := start + pieceLen
		if end > len(values) {
			end = len(values)
		}
		slope, intercept := lsqFit(values[start:end])
		out = appendF64(out, slope)
		out = appendF64(out, intercept)
	}
	return Encoded{Codec: p.Name(), Data: out, N: len(values)}, nil
}

// plaPieceLenForRatio derives the piece length from the byte budget,
// accounting for the header and ceiling division.
func plaPieceLenForRatio(n int, ratio float64) int {
	const header = 8
	budget := int(ratio * float64(8*n))
	maxPieces := (budget - header) / plaPieceBytes
	if maxPieces < 1 {
		maxPieces = 1
	}
	pieceLen := (n + maxPieces - 1) / maxPieces
	if pieceLen < 2 {
		pieceLen = 2
	}
	if pieceLen > n {
		pieceLen = n
	}
	return pieceLen
}

// lsqFit returns the least-squares line y = slope*x + intercept over local
// indices x = 0..len(y)-1.
func lsqFit(y []float64) (slope, intercept float64) {
	n := float64(len(y))
	if len(y) == 1 {
		return 0, y[0]
	}
	var sy, sxy float64
	for i, v := range y {
		sy += v
		sxy += float64(i) * v
	}
	sx := sum1(len(y))
	sxx := sum2(len(y))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// sum1 returns Σ_{t=0}^{L-1} t.
func sum1(l int) float64 { return float64(l) * float64(l-1) / 2 }

// sum2 returns Σ_{t=0}^{L-1} t².
func sum2(l int) float64 {
	lf := float64(l)
	return (lf - 1) * lf * (2*lf - 1) / 6
}

// MinRatio implements LossyCodec: a single line per segment.
func (*PLA) MinRatio(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 1
	}
	return (4 + plaPieceBytes) / float64(8*n)
}

// DecompressInto implements Codec.
func (p *PLA) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != p.Name() {
		return nil, ErrCodecMismatch
	}
	n, pieceLen, recs, err := windowedHeader(enc.Data, plaPieceBytes)
	if err != nil {
		return nil, err
	}
	out := growFloats(dst, n)
	for ; len(recs) > 0; recs = recs[plaPieceBytes:] {
		slope, intercept := f64At(recs), f64At(recs[8:])
		for t := 0; t < pieceLen && len(out) < n; t++ {
			out = append(out, slope*float64(t)+intercept)
		}
	}
	return out, nil
}

// Recode implements Recoder: RecodeInto into a fresh buffer.
func (p *PLA) Recode(enc Encoded, ratio float64) (Encoded, error) {
	return p.RecodeInto(nil, enc, ratio)
}

// RecodeInto implements Recoder: adjacent pieces are merged analytically. The
// least-squares fit of the merged piece is computed in closed form from the
// constituent lines' sufficient statistics — the "apply PLA compression to
// PLA-encoded segments" path of paper §IV-E, with no raw reconstruction.
func (p *PLA) RecodeInto(dst []byte, enc Encoded, ratio float64) (Encoded, error) {
	if enc.Codec != p.Name() {
		return Encoded{}, ErrCodecMismatch
	}
	n, pieceLen, recs, err := windowedHeader(enc.Data, plaPieceBytes)
	if err != nil {
		return Encoded{}, err
	}
	targetLen := plaPieceLenForRatio(n, ratio)
	if targetLen <= pieceLen {
		return enc, nil
	}
	m := (targetLen + pieceLen - 1) / pieceLen
	count := len(recs) / plaPieceBytes
	out := putWindowedHeader(dst, n, m*pieceLen, plaPieceBytes)
	for start := 0; start < count; start += m {
		// Accumulate Σy and Σxy over the merged range using closed-form
		// sums of each constituent line, with x the merged-local index.
		var totalLen int
		var sy, sxy float64
		for j := start; j < min(start+m, count); j++ {
			lj := min(pieceLen, n-j*pieceLen)
			a, b := f64At(recs[plaPieceBytes*j:]), f64At(recs[plaPieceBytes*j+8:])
			pieceSy := a*sum1(lj) + b*float64(lj)
			pieceSty := a*sum2(lj) + b*sum1(lj) // Σ t·y over local t
			offset := float64(totalLen)
			sy += pieceSy
			sxy += offset*pieceSy + pieceSty
			totalLen += lj
		}
		lf := float64(totalLen)
		sx := sum1(totalLen)
		sxx := sum2(totalLen)
		den := lf*sxx - sx*sx
		var slope, intercept float64
		if den == 0 {
			slope, intercept = 0, sy/lf
		} else {
			slope = (lf*sxy - sx*sy) / den
			intercept = (sy - slope*sx) / lf
		}
		out = appendF64(out, slope)
		out = appendF64(out, intercept)
	}
	return Encoded{Codec: p.Name(), Data: out, N: n}, nil
}
