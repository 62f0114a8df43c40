package compress

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"repro/internal/freelist"
)

// appendFloats serializes values little-endian, 8 bytes each.
func appendFloats(dst []byte, values []float64) []byte {
	dst = slices.Grow(dst, 8*len(values))
	for _, v := range values {
		dst = appendF64(dst, v)
	}
	return dst
}

// decodeFloats inverts appendFloats into dst[:0].
func decodeFloats(dst []float64, data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, ErrCorrupt
	}
	out := growFloats(dst, len(data)/8)
	for i := 0; i < len(data); i += 8 {
		out = append(out, f64At(data[i:]))
	}
	return out, nil
}

// growFloats returns dst[:0], reallocated if it cannot hold n points.
func growFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, 0, n)
	}
	return dst[:0]
}

// growBytes returns dst[:0], reallocated to exactly size bytes of capacity
// if it cannot hold them. The lossy encoders and BUFF compute their output
// size up front and call this once, so CompressRatio and Recode (dst nil)
// make one allocation, the payload, and CompressInto, CompressRatioInto and
// RecodeInto none in steady state.
func growBytes(dst []byte, size int) []byte {
	if cap(dst) < size {
		return make([]byte, 0, size)
	}
	return dst[:0]
}

// uvarintLen is the number of bytes putUvarint appends for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// f64At reads the little-endian float64 at the start of b.
func f64At(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// putUvarint appends v as a varint.
func putUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// byteScratch recycles byte staging buffers: the raw IEEE-754 bytes of the
// byte compressors (Gzip, Zlib, Snappy), which work on bytes, not floats,
// and BUFF-lossy's sizing encode; payloadScratch, the encodings
// CompressInto's nil-dst form copies out (a list apart, since a byte
// compressor takes a byteScratch buffer inside that call and a list keeps
// one idle entry per P). A buffer comes back aliased or grown and keeps
// its growth, up to freelist.MaxBytes. None leaves the call that took it.
var byteScratch, payloadScratch = freelist.New(byteCap), freelist.New(byteCap)

func byteCap(b *[]byte) int { return cap(*b) }

// maxDecodePoints bounds per-segment decode allocations against corrupt or
// hostile headers. AdaEdge segments hold a few hundred points; 1<<24
// (128 MiB of float64s) is generous headroom while preventing a forged
// count field from forcing multi-gigabyte allocations before any payload
// validation runs.
const maxDecodePoints = 1 << 24

// readCount parses a point/record count header field and validates it
// against the allocation bound.
func readCount(data []byte) (count uint64, consumed int, err error) {
	count, consumed = binary.Uvarint(data)
	if consumed <= 0 || count == 0 || count > maxDecodePoints {
		return 0, 0, ErrCorrupt
	}
	return count, consumed, nil
}

// windowedHeader parses the layout PAA, RRD-sample and PLA share:
// uvarint n | uvarint window | ceil(n/window) records of recBytes each.
// It returns the record bytes, validated to hold exactly that many.
func windowedHeader(data []byte, recBytes int) (n, window int, recs []byte, err error) {
	count, c, err := readCount(data)
	if err != nil {
		return 0, 0, nil, err
	}
	data = data[c:]
	win, c := binary.Uvarint(data)
	if c <= 0 || win == 0 || win > maxDecodePoints {
		return 0, 0, nil, ErrCorrupt
	}
	data = data[c:]
	n, window = int(count), int(win)
	if len(data)%recBytes != 0 || len(data)/recBytes != (n+window-1)/window {
		return 0, 0, nil, ErrCorrupt
	}
	return n, window, data, nil
}

// putWindowedHeader starts the windowedHeader layout in dst[:0], first
// sizing dst for all ceil(n/window) records of recBytes each.
func putWindowedHeader(dst []byte, n, window, recBytes int) []byte {
	out := growBytes(dst, uvarintLen(uint64(n))+uvarintLen(uint64(window))+(n+window-1)/window*recBytes)
	return putUvarint(putUvarint(out, uint64(n)), uint64(window))
}

// countedHeader parses the layout FFT and LTTB share: uvarint n | uvarint
// k | k records of recBytes each. It returns the bytes from the first
// record on, validated to hold at least k of them.
func countedHeader(data []byte, recBytes uint64) (n, k int, recs []byte, err error) {
	count, c, err := readCount(data)
	if err != nil {
		return 0, 0, nil, err
	}
	data = data[c:]
	kk, c := binary.Uvarint(data)
	if c <= 0 || kk > maxDecodePoints || uint64(len(data)-c) < kk*recBytes {
		return 0, 0, nil, ErrCorrupt
	}
	return int(count), int(kk), data[c:], nil
}

// putCountedHeader starts the countedHeader layout in dst[:0], first
// sizing dst for all k records of recBytes each.
func putCountedHeader(dst []byte, n, k, recBytes int) []byte {
	out := growBytes(dst, uvarintLen(uint64(n))+uvarintLen(uint64(k))+k*recBytes)
	return putUvarint(putUvarint(out, uint64(n)), uint64(k))
}
