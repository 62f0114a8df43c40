package compress

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"errors"
	"io"
	"strings"
	"testing"
)

// The in-house inflate is held to the standard library's readers, which
// stay in the tests only as its reference: whatever it accepts, they
// accept with identical bytes.

// fuzzInflateLimit bounds both decoders' output in the differential tests.
const fuzzInflateLimit = 1 << 22

// stdInflate decodes data through the standard library's reader for
// framing ("raw", "zlib" or "gzip"), failing past fuzzInflateLimit bytes.
func stdInflate(framing string, data []byte) ([]byte, error) {
	src := bytes.NewReader(data)
	var r io.ReadCloser
	switch framing {
	case "raw":
		r = flate.NewReader(src)
	case "zlib":
		zr, err := zlib.NewReader(src)
		if err != nil {
			return nil, err
		}
		r = zr
	default:
		gr, err := gzip.NewReader(src)
		if err != nil {
			return nil, err
		}
		gr.Multistream(false)
		r = gr
	}
	out, err := io.ReadAll(io.LimitReader(r, fuzzInflateLimit+1))
	if err == nil {
		err = r.Close()
	}
	if err == nil && len(out) > fuzzInflateLimit {
		err = errTooLarge
	}
	return out, err
}

// ourInflate decodes data through the in-house inflate for framing.
func ourInflate(framing string, data []byte) ([]byte, error) {
	switch framing {
	case "raw":
		out, _, err := inflate(nil, data, fuzzInflateLimit)
		return out, err
	case "zlib":
		return unzlib(nil, data, fuzzInflateLimit)
	default:
		return gunzip(nil, data, fuzzInflateLimit)
	}
}

// inflateDifferential fails when the in-house inflate accepts data under a
// framing that the standard library rejects or decodes to other bytes.
func inflateDifferential(t *testing.T, data []byte) {
	t.Helper()
	for _, framing := range []string{"raw", "zlib", "gzip"} {
		got, err := ourInflate(framing, data)
		if err != nil {
			continue
		}
		want, err := stdInflate(framing, data)
		if err != nil {
			t.Fatalf("%s: accepted %d bytes (%x) that the standard library rejects: %v", framing, len(data), data, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %x decodes to %d bytes, the standard library's %d differ", framing, data, len(got), len(want))
		}
	}
}

// inflateSeeds are the payloads of the four flate codecs on the golden CBF
// and plateau segments, a zlib stream of stored blocks and one of a fixed
// Huffman block, by name.
func inflateSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	seeds := map[string][]byte{}
	for ds, seg := range goldenSegments(128) {
		for _, c := range []Codec{NewGzip(), NewZlib(1), NewZlib(6), NewZlib(9)} {
			enc, err := Compress(c, seg)
			if err != nil {
				tb.Fatal(err)
			}
			seeds[c.Name()+"/"+ds] = enc.Data
		}
	}
	for _, s := range []struct {
		name  string
		level int
		in    []byte
		btype byte
	}{
		{"stored", zlib.NoCompression, appendFloats(nil, goldenSegments(128)["cbf"]), 0},
		{"fixed", zlib.DefaultCompression, []byte("abcabcabcabd"), 1},
	} {
		var b bytes.Buffer
		w, _ := zlib.NewWriterLevel(&b, s.level)
		if _, err := w.Write(s.in); err != nil {
			tb.Fatal(err)
		}
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
		if got := b.Bytes()[2] >> 1 & 3; got != s.btype {
			tb.Fatalf("%s stream: first block has type %d, want %d", s.name, got, s.btype)
		}
		seeds[s.name] = b.Bytes()
	}
	return seeds
}

func FuzzInflateDifferential(f *testing.F) {
	for name, seed := range inflateSeeds(f) {
		f.Add(seed)
		if _, err := ourInflate("zlib", seed); err == nil {
			f.Add(seed[2:]) // its raw DEFLATE stream, and the trailer
		} else if _, err = ourInflate("gzip", seed); err != nil {
			f.Fatalf("seed %s does not decode: %v", name, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inflateDifferential(t, data)
	})
}

// TestInflateAllocs pins the decoder at zero allocations on every seed,
// stored, fixed and dynamic blocks, once its output buffer is warm.
func TestInflateAllocs(t *testing.T) {
	for name, seed := range inflateSeeds(t) {
		unwrap := unzlib
		if strings.HasPrefix(name, "gzip") {
			unwrap = gunzip
		}
		buf, err := unwrap(nil, seed, fuzzInflateLimit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := testing.AllocsPerRun(100, func() {
			buf, err = unwrap(buf, seed, fuzzInflateLimit)
		}); got != 0 || err != nil {
			t.Errorf("%s: %v allocations per decode (err %v), want 0", name, got, err)
		}
	}
}

// deflateBits assembles a hand-made DEFLATE stream, least significant bit
// first.
type deflateBits struct {
	b  []byte
	nb uint
}

// put appends the n low bits of v, least significant first.
func (w *deflateBits) put(v uint, n uint) {
	for i := uint(0); i < n; i++ {
		if w.nb%8 == 0 {
			w.b = append(w.b, 0)
		}
		w.b[len(w.b)-1] |= byte(v>>i&1) << (w.nb % 8)
		w.nb++
	}
}

// code appends an n-bit Huffman code, most significant bit first.
func (w *deflateBits) code(c uint, n uint) {
	for i := n; i > 0; i-- {
		w.put(c>>(i-1)&1, 1)
	}
}

// zlibWrap frames a raw DEFLATE stream as zlib, checksumming want.
func zlibWrap(deflate, want []byte) []byte {
	var b bytes.Buffer
	zw := zlib.NewWriter(&b)
	if _, err := zw.Write(want); err != nil {
		panic(err)
	}
	if err := zw.Close(); err != nil {
		panic(err)
	}
	full := b.Bytes()
	return append(append(full[:2:2], deflate...), full[len(full)-4:]...)
}

// TestInflateRejects pins each safety check of the decoder on a stream
// that trips it alone, and that the standard library rejects too.
func TestInflateRejects(t *testing.T) {
	// Fixed-Huffman 'a' then a length-3 copy from distance d: 'aaaa' when
	// d is 1, a reference before the output start when d is 2.
	fixedCopy := func(distSym uint) []byte {
		var w deflateBits
		w.put(1, 1)         // BFINAL
		w.put(1, 2)         // BTYPE fixed
		w.code(0x30+'a', 8) // literal 'a'
		w.code(1, 7)        // length symbol 257: 3
		w.code(distSym, 5)  // distance symbol
		w.code(0, 7)        // end of block
		return w.b
	}
	aaaa := zlibWrap(fixedCopy(0), []byte("aaaa"))
	if got, err := unzlib(nil, aaaa, 1<<20); err != nil || string(got) != "aaaa" {
		t.Fatalf("the valid hand-made stream decodes to %q, %v", got, err)
	}
	// A dynamic block whose code length code gives its first four symbols
	// the lengths lens.
	codeLengthCode := func(lens [4]uint) []byte {
		var w deflateBits
		w.put(1, 1) // BFINAL
		w.put(2, 2) // BTYPE dynamic
		w.put(0, 5) // 257 literal/length codes
		w.put(0, 5) // 1 distance code
		w.put(0, 4) // 4 code length codes
		for _, l := range lens {
			w.put(l, 3)
		}
		w.put(0, 16) // the code lengths would follow
		return w.b
	}
	corrupt := func(data []byte, at int) []byte {
		data = bytes.Clone(data)
		data[at] ^= 1
		return data
	}
	gz, err := Compress(NewGzip(), goldenSegments(128)["cbf"])
	if err != nil {
		t.Fatal(err)
	}
	n := len(gz.Data)
	for _, tc := range []struct {
		name    string
		framing string
		data    []byte
		limit   int
		want    error
	}{
		{"adler-32 mismatch", "zlib", corrupt(aaaa, len(aaaa)-1), 1 << 20, errChecksum},
		{"crc-32 mismatch", "gzip", corrupt(gz.Data, n-8), 1 << 20, errChecksum},
		{"isize mismatch", "gzip", corrupt(gz.Data, n-4), 1 << 20, errChecksum},
		{"reference before the output start", "zlib", zlibWrap(fixedCopy(1), []byte("aaaa")), 1 << 20, errDistance},
		{"over-subscribed code", "zlib", zlibWrap(codeLengthCode([4]uint{1, 1, 1, 0}), nil), 1 << 20, errOverfull},
		{"incomplete code", "zlib", zlibWrap(codeLengthCode([4]uint{2, 2, 2, 0}), nil), 1 << 20, errIncomplete},
		{"output past the bound by a literal", "zlib", aaaa, 0, errTooLarge},
		{"output past the bound by a copy", "zlib", aaaa, 3, errTooLarge},
		{"output past the bound by a stored block", "zlib", inflateSeeds(t)["stored"], 1023, errTooLarge},
	} {
		var err error
		if tc.framing == "zlib" {
			_, err = unzlib(nil, tc.data, tc.limit)
		} else {
			_, err = gunzip(nil, tc.data, tc.limit)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.limit == 1<<20 {
			if _, err := stdInflate(tc.framing, tc.data); err == nil {
				t.Errorf("%s: the standard library accepts it", tc.name)
			}
		}
	}
}
