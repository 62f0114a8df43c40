package bitio

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	var w Writer
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if got := len(w.Bytes()); got != 2 {
		t.Fatalf("%d bits took %d bytes, want 2", len(pattern), got)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit(%d): %v", i, err)
		}
		if got != want {
			t.Errorf("bit %d = %v, want %v", i, got, want)
		}
	}
}

func TestWriteReadBitsWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w Writer
	type field struct {
		v uint64
		n uint
	}
	var fields []field
	for i := 0; i < 500; i++ {
		n := uint(rng.Intn(64) + 1)
		v := rng.Uint64()
		if n < 64 {
			v &= (1 << n) - 1
		}
		fields = append(fields, field{v, n})
		w.WriteBits(v, n)
	}
	r := NewReader(w.Bytes())
	for i, f := range fields {
		got, err := r.ReadBits(f.n)
		if err != nil {
			t.Fatalf("ReadBits #%d: %v", i, err)
		}
		if got != f.v {
			t.Fatalf("field %d (width %d) = %#x, want %#x", i, f.n, got, f.v)
		}
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	var w Writer
	w.WriteBits(0xFFFF, 4) // only the low 4 bits should be written
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xF {
		t.Fatalf("got %#x, want 0xF", got)
	}
}

func TestWriteUint64RoundTrip(t *testing.T) {
	var w Writer
	w.WriteBit(true) // misalign on purpose
	w.WriteUint64(0xDEADBEEFCAFEBABE)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBit(); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadUint64()
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xDEADBEEFCAFEBABE {
		t.Fatalf("got %#x", got)
	}
}

func TestReaderShortRead(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrShortRead {
		t.Fatalf("expected ErrShortRead, got %v", err)
	}
	if _, err := r.ReadBits(4); err != ErrShortRead {
		t.Fatalf("expected ErrShortRead, got %v", err)
	}
}

// remaining is the number of bits r has not consumed.
func remaining(r *Reader) int { return int(r.end - r.off) }

func TestReaderRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if got := remaining(r); got != 16 {
		t.Fatalf("remaining = %d, want 16", got)
	}
	r.ReadBits(5)
	if got := remaining(r); got != 11 {
		t.Fatalf("remaining = %d, want 11", got)
	}
}

func TestWriterResetBuf(t *testing.T) {
	// A header built with plain appends must survive as a byte-aligned
	// prefix of the final stream.
	hdr := []byte{0xAA, 0xBB}
	var w Writer
	w.ResetBuf(hdr)
	w.WriteBits(0x5, 3)
	out := w.Bytes()
	if out[0] != 0xAA || out[1] != 0xBB {
		t.Fatalf("header prefix clobbered: % x", out[:2])
	}
	if len(out) != 3 {
		t.Fatalf("header plus 3 bits is %d bytes, want 3", len(out))
	}
	r := NewReader(out[2:])
	if got, _ := r.ReadBits(3); got != 0x5 {
		t.Fatalf("bit payload = %#x, want 0x5", got)
	}
	// Reusing the same backing array must not allocate and must fully
	// overwrite the previous content.
	allocs := testing.AllocsPerRun(100, func() {
		w.ResetBuf(out[:0])
		w.WriteBits(0x2, 3)
		_ = w.Bytes()
	})
	if allocs != 0 {
		t.Fatalf("ResetBuf reuse allocates %v per run", allocs)
	}
}

func TestReaderReset(t *testing.T) {
	r := NewReader([]byte{0xF0})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrShortRead {
		t.Fatalf("want ErrShortRead, got %v", err)
	}
	r.Reset([]byte{0x80, 0x01})
	if got := remaining(r); got != 16 {
		t.Fatalf("remaining after Reset = %d, want 16", got)
	}
	b, err := r.ReadBit()
	if err != nil || !b {
		t.Fatalf("first bit after Reset = %v, %v", b, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(nil)
	})
	if allocs != 0 {
		t.Fatalf("Reset allocates %v per run", allocs)
	}
}

func TestZigZagRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63}
	for _, v := range cases {
		if got := UnZigZag(ZigZag(v)); got != v {
			t.Errorf("zigzag round trip %d -> %d", v, got)
		}
	}
}

func TestZigZagOrdersSmallMagnitudes(t *testing.T) {
	// |v| small should map to small codes: 0,-1,1,-2,2 -> 0,1,2,3,4
	want := map[int64]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4}
	for v, code := range want {
		if got := ZigZag(v); got != code {
			t.Errorf("ZigZag(%d) = %d, want %d", v, got, code)
		}
	}
}

func TestQuickZigZag(t *testing.T) {
	f := func(v int64) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBitsRoundTrip(t *testing.T) {
	f := func(vals []uint16) bool {
		var w Writer
		for _, v := range vals {
			w.WriteBits(uint64(v), 16)
		}
		r := NewReader(w.Bytes())
		for _, v := range vals {
			got, err := r.ReadBits(16)
			if err != nil || got != uint64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refReader is the reference the word-wide Reader is held to: one bit per
// step, nothing else.
type refReader struct {
	buf []byte
	pos int // bits consumed
}

func (r *refReader) readBit() (bool, error) {
	if r.pos >= 8*len(r.buf) {
		return false, ErrShortRead
	}
	bit := r.buf[r.pos/8]>>(7-r.pos%8)&1 == 1
	r.pos++
	return bit, nil
}

func (r *refReader) readBits(n uint) (uint64, error) {
	var v uint64
	for ; n > 0; n-- {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if bit {
			v |= 1
		}
	}
	return v, nil
}

func (r *refReader) remaining() int { return 8*len(r.buf) - r.pos }

// FuzzReaderDifferential replays one op list on the Reader and on the
// bit-by-bit reference: every op must return the same value and the same
// error and leave the same number of bits unread, past the first short read
// too. An op byte is a ReadBits width 0-64, or 65 for ReadBit. The seeds
// cover every buffer length from empty to three words, so each length of
// the tail the word loads must not overrun is in the plain test run.
func FuzzReaderDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(18))
	for size := 0; size <= 24; size++ {
		data, ops := make([]byte, size), make([]byte, 8+rng.Intn(40))
		rng.Read(data)
		rng.Read(ops)
		f.Add(data, ops)
	}
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe, 0x01}, []byte{64, 65, 7, 0, 64, 1})

	f.Fuzz(func(t *testing.T, data, ops []byte) {
		got, want := NewReader(data), &refReader{buf: data}
		for i, op := range ops {
			var gv, wv uint64
			var gerr, werr error
			if n := uint(op % 66); n == 65 {
				var gb, wb bool
				gb, gerr = got.ReadBit()
				wb, werr = want.readBit()
				if gb != wb {
					t.Fatalf("op %d: ReadBit = %v, want %v", i, gb, wb)
				}
			} else {
				gv, gerr = got.ReadBits(n)
				wv, werr = want.readBits(n)
			}
			if gv != wv || gerr != werr {
				t.Fatalf("op %d (%d): %#x, %v; want %#x, %v", i, op%66, gv, gerr, wv, werr)
			}
			if remaining(got) != want.remaining() {
				t.Fatalf("op %d (%d): %d bits remain, want %d", i, op%66, remaining(got), want.remaining())
			}
		}
	})
}

// TestReadBitsInlines holds ReadBits and ReadBit inside the compiler's
// inlining budget: the decoders call one of them per field, and a body that
// grows by a node or two silently turns each into a function call.
func TestReadBitsInlines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build")
	}
	// From the module root: the go command caches the compiler's output with
	// its paths relative to the directory of the first build, and a build
	// from here would leave "./bitio.go" paths in the cache for every later
	// -gcflags=-m build of the package.
	cmd := exec.Command("go", "build", "-gcflags=-m", "./internal/bitio")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Skipf("go build: %v\n%s", err, out)
	}
	for _, method := range []string{"(*Reader).ReadBits", "(*Reader).ReadBit"} {
		if !strings.Contains(string(out), "can inline "+method+"\n") {
			t.Errorf("%s is no longer inlinable; go build -gcflags=-m=2 ./internal/bitio says why", method)
		}
	}
}

// BenchmarkReadBits reads one 128-field segment's worth of fixed-width
// fields, at the widths the codecs use: Sprintz residuals, BUFF-lossy
// mantissas, Gorilla and Chimp XOR payloads, whole words.
func BenchmarkReadBits(b *testing.B) {
	const fields = 127
	data := make([]byte, fields*8)
	rand.New(rand.NewSource(1)).Read(data)
	for _, width := range []uint{5, 12, 50, 64} {
		b.Run(strconv.Itoa(int(width)), func(b *testing.B) {
			var r Reader
			var sum uint64
			for i := 0; i < b.N; i++ {
				r.Reset(data)
				for k := 0; k < fields; k++ {
					v, err := r.ReadBits(width)
					if err != nil {
						b.Fatal(err)
					}
					sum += v
				}
			}
			benchSink = sum
		})
	}
}

var benchSink uint64

func TestReadUvarintMinimalOnly(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 30, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, v)
		r := bytes.NewReader(enc)
		if got, err := ReadUvarint(r); err != nil || got != v || r.Len() != 0 {
			t.Fatalf("ReadUvarint(%x) = %d, %v with %d bytes left; want %d", enc, got, err, r.Len(), v)
		}
	}
	for _, tc := range []struct {
		in   []byte
		want error
	}{
		{nil, io.EOF},
		{[]byte{0x80}, io.ErrUnexpectedEOF},
		{[]byte{0x80, 0x00}, errOverlongVarint},       // 0 in two bytes
		{[]byte{0xff, 0x80, 0x00}, errOverlongVarint}, // 127 in three
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, errOverlongVarint}, // 2^64
		{bytes.Repeat([]byte{0x80}, 11), errOverlongVarint},
	} {
		if _, err := ReadUvarint(bytes.NewReader(tc.in)); err != tc.want {
			t.Errorf("ReadUvarint(%x): err %v, want %v", tc.in, err, tc.want)
		}
	}
}
