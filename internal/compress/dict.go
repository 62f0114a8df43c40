package compress

import (
	"math/bits"

	"repro/internal/bitio"
	"repro/internal/freelist"
)

// Dict is dictionary encoding for numeric data: distinct values are
// collected into a dictionary and each point is stored as a bit-packed code
// of ceil(log2(|dict|)) bits. It excels on low-cardinality signals and
// degrades to worse-than-raw on high-entropy data, which is exactly the
// behaviour the paper's selection experiments rely on.
//
// The dictionary is keyed by value, and -0.0 == +0.0: every zero of a
// segment decodes with the sign of the first one (value-equal, not
// bit-equal; see TestZeroSignContract).
//
// Layout: uvarint dictCount | dictCount×8B values | uvarint n | packed codes.
type Dict struct{}

// NewDict returns the dictionary codec.
func NewDict() *Dict { return &Dict{} }

// Name implements Codec.
func (*Dict) Name() string { return "dict" }

// CompressInto implements Codec.
func (*Dict) CompressInto(dst []byte, values []float64) (Encoded, error) {
	if len(values) == 0 {
		return Encoded{}, ErrEmptyInput
	}
	ws := dictScratches.Get()
	defer dictScratches.Put(ws)
	ws.reserve(len(values))
	clear(ws.index)
	dict, codes := ws.dict[:0], ws.codes[:0]
	for _, v := range values {
		code, ok := ws.index[v]
		if !ok {
			code = uint32(len(dict))
			ws.index[v] = code
			dict = append(dict, v)
		}
		codes = append(codes, code)
	}
	ws.dict, ws.codes = dict, codes
	width := bitsFor(uint64(len(dict) - 1))
	out := putUvarint(dst[:0], uint64(len(dict)))
	out = appendFloats(out, dict)
	out = putUvarint(out, uint64(len(values)))
	var w bitio.Writer
	w.ResetBuf(out)
	for _, c := range codes {
		w.WriteBits(uint64(c), uint(width))
	}
	return Encoded{Codec: "dict", Data: w.Bytes(), N: len(values)}, nil
}

// dictScratch is the workspace of one encode: the value index, the
// dictionary in first-seen order and each point's code.
type dictScratch struct {
	index map[float64]uint32
	dict  []float64
	codes []uint32
}

// dictScratches sizes a workspace by its codes' capacity, which bounds the
// index: per value a 4-byte code, an 8-byte entry and at most 40 of index.
var dictScratches = freelist.New(func(ws *dictScratch) int { return cap(ws.codes) * (4 + 8 + 40) })

// reserve sizes a workspace born empty for an n-point segment, each part
// in one allocation: a segment has at most n distinct values, so neither
// the index nor the arrays grow while it is encoded. A workspace the free
// list dropped is rebuilt that way, not by doubling from a small map.
func (ws *dictScratch) reserve(n int) {
	if ws.index == nil {
		ws.index = make(map[float64]uint32, n)
	}
	if cap(ws.codes) < n {
		ws.dict, ws.codes = make([]float64, 0, n), make([]uint32, 0, n)
	}
}

// DecompressInto implements Codec. Codes index the dictionary where it
// lies in enc.Data; nothing is staged.
func (d *Dict) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	if enc.Codec != d.Name() {
		return nil, ErrCodecMismatch
	}
	data := enc.Data
	dictCount, n, err := readCount(data)
	if err != nil {
		return nil, err
	}
	data = data[n:]
	if uint64(len(data)) < dictCount*8 {
		return nil, ErrCorrupt
	}
	dict := data[:dictCount*8]
	data = data[dictCount*8:]
	count, n, err := readCount(data)
	if err != nil {
		return nil, err
	}
	width := bitsFor(dictCount - 1)
	var r bitio.Reader
	r.Reset(data[n:])
	out := growFloats(dst, int(count))
	for uint64(len(out)) < count {
		c, err := r.ReadBits(uint(width))
		if err != nil || c >= dictCount {
			return nil, ErrCorrupt
		}
		out = append(out, f64At(dict[8*c:]))
	}
	return out, nil
}

// bitsFor returns the number of bits needed to represent v (at least 1).
func bitsFor(v uint64) int { return max(1, bits.Len64(v)) }
