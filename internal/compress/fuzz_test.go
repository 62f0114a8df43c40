package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Decoder robustness: no codec may panic, hang, or allocate unboundedly on
// arbitrary bytes — corrupt flash and truncated transmissions are routine
// on edge devices. Each fuzz target's seed corpus includes valid encodings
// so the happy path is exercised too; run with `go test -fuzz FuzzX` for a
// real campaign, or as plain unit tests for the corpus.

// fuzzSeeds produces valid encodings for the corpus.
func fuzzSeeds(t interface{ Helper() }, c Codec) [][]byte {
	sig := []float64{1.5, -2.25, 3.125, 3.125, 7, -0.0625, 42, 42, 42, 0.5}
	var seeds [][]byte
	if enc, err := Compress(c, sig); err == nil {
		seeds = append(seeds, enc.Data)
	}
	// Growth-boundary lengths: segments whose encodings land on the edges
	// of the kernels' internal block and buffer boundaries (Sprintz
	// 8-residual blocks, partial trailing bytes, append-doubling points of
	// the pre-pooling writers), where the scratch-reuse paths are most
	// likely to mis-handle a reallocation.
	for _, n := range []int{1, 8, 9, 64, 65, 255, 257} {
		edge := make([]float64, n)
		for i := range edge {
			edge[i] = float64((i*11)%19)/8 - 0.75
		}
		if enc, err := c.CompressInto(make([]byte, 0, 8), edge); err == nil {
			seeds = append(seeds, append([]byte(nil), enc.Data...))
		}
	}
	if lc, ok := c.(LossyCodec); ok {
		long := make([]float64, 256)
		for i := range long {
			long[i] = float64(i%17) / 4
		}
		if enc, err := lc.CompressRatio(long, 0.2); err == nil {
			seeds = append(seeds, enc.Data)
		}
	}
	return seeds
}

// fuzzDecode runs one decode attempt into a dirty dst with spare capacity,
// requiring graceful error handling. N agrees with the count the payload
// leads with when that is affordable to decode, so layouts that check N
// against their header (FFT's) are reached at every n, not only 128.
func fuzzDecode(t *testing.T, c Codec, data []byte) {
	t.Helper()
	enc := Encoded{Codec: c.Name(), Data: data, N: 128}
	if fuzzDecodable(data) {
		n, _, _ := readCount(data)
		enc.N = int(n)
	}
	dst := append(make([]float64, 0, 64), math.NaN(), math.Inf(-1), 7)
	vals, err := c.DecompressInto(dst, enc)
	if err != nil {
		return // rejected: fine
	}
	if len(vals) > maxDecodePoints {
		t.Fatalf("decoded %d values past the allocation bound", len(vals))
	}
}

func fuzzCodec(f *testing.F, mk func() Codec) {
	c := mk()
	for _, seed := range fuzzSeeds(f, c) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, c, data)
	})
}

func FuzzGorillaDecode(f *testing.F)   { fuzzCodec(f, func() Codec { return NewGorilla() }) }
func FuzzChimpDecode(f *testing.F)     { fuzzCodec(f, func() Codec { return NewChimp() }) }
func FuzzSprintzDecode(f *testing.F)   { fuzzCodec(f, func() Codec { return NewSprintz(4) }) }
func FuzzBUFFDecode(f *testing.F)      { fuzzCodec(f, func() Codec { return NewBUFF(4) }) }
func FuzzGzipDecode(f *testing.F)      { fuzzCodec(f, func() Codec { return NewGzip() }) }
func FuzzZlibDecode(f *testing.F)      { fuzzCodec(f, func() Codec { return NewZlib(6) }) }
func FuzzElfDecode(f *testing.F)       { fuzzCodec(f, func() Codec { return NewElf(4) }) }
func FuzzSnappyDecode(f *testing.F)    { fuzzCodec(f, func() Codec { return NewSnappy() }) }
func FuzzDictDecode(f *testing.F)      { fuzzCodec(f, func() Codec { return NewDict() }) }
func FuzzPAADecode(f *testing.F)       { fuzzCodec(f, func() Codec { return NewPAA() }) }
func FuzzPLADecode(f *testing.F)       { fuzzCodec(f, func() Codec { return NewPLA() }) }
func FuzzFFTDecode(f *testing.F)       { fuzzCodec(f, func() Codec { return NewFFT() }) }
func FuzzLTTBDecode(f *testing.F)      { fuzzCodec(f, func() Codec { return NewLTTB() }) }
func FuzzRRDDecode(f *testing.F)       { fuzzCodec(f, func() Codec { return NewRRDSample(1) }) }
func FuzzBUFFLossyDecode(f *testing.F) { fuzzCodec(f, func() Codec { return NewBUFFLossy(4) }) }

// Hostile-header regression cases caught during hardening: forged counts
// must be rejected before any allocation.
func TestHostileHeadersRejected(t *testing.T) {
	hugeCount := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	reg := DefaultRegistry(4)
	for _, name := range reg.Names() {
		c, _ := reg.Lookup(name)
		if _, err := Decompress(c, Encoded{Codec: name, Data: hugeCount, N: 128}); err == nil {
			t.Errorf("%s: accepted a 2^63 count header", name)
		}
		if _, err := Decompress(c, Encoded{Codec: name, Data: nil, N: 128}); err == nil {
			t.Errorf("%s: accepted empty data", name)
		}
	}
}

// TestHostileBitWidthsRejected: a forged width field must be ErrCorrupt on
// every path that hands it to bitio.Reader.ReadBits, whose contract is
// [0,64] — BUFF's width/drop pair on the decode, recode and direct-query
// paths (a drop above the width is a negative stored width), and Sprintz's
// seven-bit block width.
func TestHostileBitWidthsRejected(t *testing.T) {
	values := make([]float64, 128)
	for i := range values {
		values[i] = float64(i%17) / 4
	}
	lossy := NewBUFFLossy(4)
	enc, err := lossy.CompressRatio(values, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, _ := buffHeaderSize(enc.Data)
	for _, wd := range [][2]byte{{9, 200}, {65, 0}, {255, 254}, {0, 0}} {
		bad := Encoded{Codec: enc.Codec, Data: append([]byte(nil), enc.Data...), N: enc.N}
		bad.Data[hdr-2], bad.Data[hdr-1] = wd[0], wd[1]
		if _, err := Decompress(lossy, bad); err != ErrCorrupt {
			t.Errorf("width %d drop %d: decode returned %v, want ErrCorrupt", wd[0], wd[1], err)
		}
		if _, err := lossy.Recode(bad, 0.1); err != ErrCorrupt {
			t.Errorf("width %d drop %d: Recode returned %v, want ErrCorrupt", wd[0], wd[1], err)
		}
		if _, err := lossy.SumEncoded(bad); err != ErrCorrupt {
			t.Errorf("width %d drop %d: SumEncoded returned %v, want ErrCorrupt", wd[0], wd[1], err)
		}
	}

	sprintz := NewSprintz(4)
	senc, err := Compress(sprintz, values)
	if err != nil {
		t.Fatal(err)
	}
	// Block widths sit at bit offsets that depend on the widths before them,
	// so forge every byte in turn: where the byte held a width, 127 is wider
	// than any residual and must be ErrCorrupt; elsewhere the stream may
	// still decode. Nothing else may come back.
	rejected := 0
	for at := range senc.Data {
		bad := Encoded{Codec: senc.Codec, Data: append([]byte(nil), senc.Data...), N: senc.N}
		bad.Data[at] |= 0xfe
		if _, err := Decompress(sprintz, bad); err == ErrCorrupt {
			rejected++
		} else if err != nil {
			t.Errorf("sprintz byte %d forged: %v, want ErrCorrupt or a decode", at, err)
		}
	}
	if rejected == 0 {
		t.Error("no forged sprintz byte was rejected: the sweep never reached a block width")
	}
}

// hostileOp is one reader of a payload: decode, recode or a direct
// aggregate.
type hostileOp struct {
	name string
	run  func(Encoded) error
}

// hostileOps lists every reader c has of its own payloads. A panic comes
// back as an error, so one forged case cannot hide the cases after it.
func hostileOps(c Codec) []hostileOp {
	out := []hostileOp{
		{"decode", func(e Encoded) error { _, err := c.DecompressInto(nil, e); return err }},
		{"recode", func(e Encoded) error { _, err := c.(Recoder).Recode(e, 0.01); return err }},
	}
	if s, ok := c.(DirectSummer); ok {
		out = append(out, hostileOp{"sum", func(e Encoded) error { _, err := s.SumEncoded(e); return err }})
	}
	if m, ok := c.(DirectMinMaxer); ok {
		out = append(out, hostileOp{"minmax", func(e Encoded) error { _, _, err := m.MinMaxEncoded(e); return err }})
	}
	for i, o := range out {
		out[i].run = func(e Encoded) (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return o.run(e)
		}
	}
	return out
}

// TestWindowedHostileCounts: every reader of the windowed layout — PAA,
// RRD-sample and PLA decode and recode, and the direct aggregates
// over them — rejects a point count of 0 or of maxDecodePoints+1 with
// ErrCorrupt. The rest of each header is consistent with the forged count
// (its window and record count agree), so the count check alone stands
// between it and a decode of 0 or 2^24+1 points.
func TestWindowedHostileCounts(t *testing.T) {
	for _, tc := range []struct {
		c        Codec
		recBytes int
	}{
		{NewPAA(), 8}, {NewRRDSample(1), 8}, {NewPLA(), plaPieceBytes},
	} {
		for _, h := range []struct{ count, window uint64 }{{0, 4}, {maxDecodePoints + 1, maxDecodePoints}} {
			data := binary.AppendUvarint(binary.AppendUvarint(nil, h.count), h.window)
			data = append(data, make([]byte, int((h.count+h.window-1)/h.window)*tc.recBytes)...)
			enc := Encoded{Codec: tc.c.Name(), Data: data, N: int(h.count)}
			for _, o := range hostileOps(tc.c) {
				if err := o.run(enc); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s %s, count %d: err = %v, want ErrCorrupt", tc.c.Name(), o.name, h.count, err)
				}
			}
		}
	}
}

// TestCountedHostileCounts: every reader of the counted layout — FFT and
// LTTB decode and recode, and the direct aggregates over them — rejects a
// header whose point count n or record count k is out of range, or whose k
// records are not all there, with ErrCorrupt. Encoded.N agrees with the
// forged n, so no metadata check stands in for the header's own.
func TestCountedHostileCounts(t *testing.T) {
	for _, tc := range []struct {
		c        Codec
		recBytes int
	}{
		{NewFFT(), fftCoefBytes}, {NewLTTB(), lttbPointBytes},
	} {
		// counted is a header of n points and k records, then one record.
		counted := func(n, k uint64) []byte {
			return append(binary.AppendUvarint(binary.AppendUvarint(nil, n), k), make([]byte, tc.recBytes)...)
		}
		for _, h := range []struct {
			name string
			data []byte
		}{
			{"count 0", counted(0, 1)},
			{"count maxDecodePoints+1", counted(maxDecodePoints+1, 1)},
			{"k maxDecodePoints+1", counted(4, maxDecodePoints+1)},
			// n = k = 48 ('0'), and none of the 48 records.
			{`payload "00"`, []byte("00")},
		} {
			n, _ := binary.Uvarint(h.data)
			enc := Encoded{Codec: tc.c.Name(), Data: h.data, N: int(n)}
			for _, o := range hostileOps(tc.c) {
				if err := o.run(enc); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s %s, %s: err = %v, want ErrCorrupt", tc.c.Name(), o.name, h.name, err)
				}
			}
		}
	}
}

// The decode targets above only drive DecompressInto; Recode and the direct
// queries parse the same bytes through their own code (stored pools are
// recoded in place, and a restored dump is bytes the engine did not write).

// fuzzNs are the Encoded.N values a parser is tried with beside the payload
// header's own count: metadata travels apart from the payload (a pool dump
// stores it in its own field), so it can disagree with it.
var fuzzNs = []int{0, 1, 1 << 20}

// fuzzEncoded builds the hostile Encoded: nsel picks N from fuzzNs, or the
// count the payload itself leads with (every layout here starts with one).
func fuzzEncoded(c Codec, data []byte, nsel uint8) Encoded {
	enc := Encoded{Codec: c.Name(), Data: data}
	if i := int(nsel) % (len(fuzzNs) + 1); i < len(fuzzNs) {
		enc.N = fuzzNs[i]
	} else if n, _, err := readCount(data); err == nil {
		enc.N = int(n)
	}
	return enc
}

// fuzzDecodable reports whether decoding data as a reference is affordable
// inside a fuzz iteration. FuzzDirectQuery decodes with the metadata the
// direct aggregate was given, and one of fuzzEncoded's selectors forges it to
// agree with the payload's count: the one case fftHeader accepts by design,
// and at eight digits of points an inverse transform that takes seconds.
func fuzzDecodable(data []byte) bool {
	n, _, err := readCount(data)
	return err == nil && n <= 1<<16
}

// fuzzCodecs returns the codecs of DefaultRegistry(4) that pick accepts, in
// name order: the first argument of FuzzRecode and FuzzDirectQuery indexes
// them, so a seed file pins a codec only as long as this list keeps it at
// the same index (TestFuzzSeedsSelectTheirCodec).
func fuzzCodecs(pick func(Codec) bool) []Codec {
	reg := DefaultRegistry(4)
	var codecs []Codec
	names := reg.Names()
	slices.Sort(names)
	for _, name := range names {
		if c, _ := reg.Lookup(name); pick(c) {
			codecs = append(codecs, c)
		}
	}
	return codecs
}

// isRecoder picks FuzzRecode's codecs.
func isRecoder(c Codec) bool { _, ok := c.(Recoder); return ok }

// isDirect picks FuzzDirectQuery's codecs.
func isDirect(c Codec) bool {
	_, sum := c.(DirectSummer)
	_, mm := c.(DirectMinMaxer)
	return sum || mm
}

// fuzzEach seeds f with every valid encoding of each of fuzzCodecs(pick), at
// each N selector, then again with each encoding cut short by its last byte
// (a payload truncated in storage or in flight, whose header still promises
// the full count), and returns those codecs.
func fuzzEach(f *testing.F, pick func(Codec) bool) []Codec {
	codecs := fuzzCodecs(pick)
	for _, cut := range []int{0, 1} {
		for i, c := range codecs {
			for _, seed := range fuzzSeeds(f, c) {
				if len(seed) < cut {
					continue
				}
				for nsel := range len(fuzzNs) + 1 {
					f.Add(uint8(i), seed[:len(seed)-cut], uint8(nsel), uint8(31))
				}
			}
		}
	}
	return codecs
}

// TestFuzzSeedsSelectTheirCodec: every checked-in seed of FuzzRecode and
// FuzzDirectQuery is named after the codec it was added to pin, and its
// first argument must still select that codec. A codec added to or removed
// from the registry shifts the indexes after it, and a seed that lands on
// another codec still passes while no longer reaching its path.
func TestFuzzSeedsSelectTheirCodec(t *testing.T) {
	for target, pick := range map[string]func(Codec) bool{"FuzzRecode": isRecoder, "FuzzDirectQuery": isDirect} {
		codecs := fuzzCodecs(pick)
		dir := filepath.Join("testdata", "fuzz", target)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("%s: no seeds", dir)
		}
		for _, file := range files {
			data, err := os.ReadFile(filepath.Join(dir, file.Name()))
			if err != nil {
				t.Fatal(err)
			}
			which, err := fuzzSeedFirstByte(data)
			if err != nil {
				t.Fatalf("%s/%s: %v", target, file.Name(), err)
			}
			if c := codecs[int(which)%len(codecs)]; !strings.HasPrefix(file.Name(), c.Name()+"-") {
				t.Errorf("%s/%s: first argument %#x selects %s", target, file.Name(), which, c.Name())
			}
		}
	}
}

// fuzzSeedFirstByte parses the first argument of a "go test fuzz v1" file
// whose first argument is a byte, written as byte('c') with c a Go
// character literal.
func fuzzSeedFirstByte(data []byte) (uint8, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) < 2 || lines[0] != "go test fuzz v1" {
		return 0, errors.New("not a go test fuzz v1 file")
	}
	lit, prefixed := strings.CutPrefix(lines[1], "byte('")
	lit, suffixed := strings.CutSuffix(lit, "')")
	v, _, tail, err := strconv.UnquoteChar(lit, '\'')
	if !prefixed || !suffixed || err != nil || tail != "" || v > 0xff {
		return 0, fmt.Errorf("first argument %q is not a byte", lines[1])
	}
	return uint8(v), nil
}

// FuzzRecode: no Recoder may panic on arbitrary bytes or metadata; what it
// returns is no larger than what it was given, and decodes (or is rejected)
// without a panic.
func FuzzRecode(f *testing.F) {
	codecs := fuzzEach(f, isRecoder)
	f.Fuzz(func(t *testing.T, which uint8, data []byte, nsel, rsel uint8) {
		c := codecs[int(which)%len(codecs)]
		enc := fuzzEncoded(c, data, nsel)
		ratio := float64(rsel%64+1) / 64
		out, err := c.(Recoder).Recode(enc, ratio)
		if err != nil {
			return // rejected: fine
		}
		if out.Size() > enc.Size() {
			t.Fatalf("%s: Recode to %.3f grew %d bytes to %d", c.Name(), ratio, enc.Size(), out.Size())
		}
		fuzzDecode(t, c, out.Data)
	})
}

// FuzzDirectQuery: no direct aggregate may panic on arbitrary bytes or
// metadata, and when both it and the decoder accept them it agrees with
// aggregating the decode (DirectSummer's and DirectMinMaxer's contract).
func FuzzDirectQuery(f *testing.F) {
	codecs := fuzzEach(f, isDirect)
	f.Fuzz(func(t *testing.T, which uint8, data []byte, nsel, _ uint8) {
		c := codecs[int(which)%len(codecs)]
		enc := fuzzEncoded(c, data, nsel)
		var sum, lo, hi float64
		var sumErr, mmErr error = ErrCorrupt, ErrCorrupt
		if ds, ok := c.(DirectSummer); ok {
			sum, sumErr = ds.SumEncoded(enc)
		}
		if dm, ok := c.(DirectMinMaxer); ok {
			lo, hi, mmErr = dm.MinMaxEncoded(enc)
		}
		if !fuzzDecodable(data) {
			return
		}
		vals, err := c.DecompressInto(nil, enc)
		if err != nil {
			return
		}
		// The reference, and the scale its rounding error grows with. Bytes
		// that decode to NaN, ±Inf or close enough to overflow that a closed
		// form's intermediate can reach it have no aggregate to agree on.
		var wsum, scale float64
		wlo, whi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			wsum, scale = wsum+v, scale+math.Abs(v)
			wlo, whi = math.Min(wlo, v), math.Max(whi, v)
		}
		if c.Name() == "fft" {
			// The inverse transform rounds relative to the spectrum, which a
			// forged Nyquist or DC imaginary part keeps out of the values.
			if n, k, recs, err := countedHeader(data, fftCoefBytes); err == nil {
				for i := 0; i < k; i++ {
					if co, err := fftCoefAt(recs, i, n); err == nil {
						scale += cmplx.Abs(co.val)
					}
				}
			}
		}
		if !(scale < 1e280) {
			return
		}
		tol := 1e-9 * math.Max(1, scale)
		if sumErr == nil && !(math.Abs(sum-wsum) <= tol) {
			t.Errorf("%s: direct sum %v, decoded sum %v", c.Name(), sum, wsum)
		}
		agree := math.Abs(lo-wlo) <= tol && math.Abs(hi-whi) <= tol
		if c.Name() == "dict" {
			// The dictionary's extrema: a forged entry no code uses can
			// only widen them.
			agree = lo <= wlo && hi >= whi
		}
		if mmErr == nil && !agree {
			t.Errorf("%s: direct min/max (%v, %v), decoded (%v, %v)", c.Name(), lo, hi, wlo, whi)
		}
	})
}
