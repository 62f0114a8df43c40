package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
)

// These tests pin down the semantics of "virtual decompression" (paper
// §IV-E): recoding an already-compressed segment must be equivalent — or
// provably close — to compressing the raw segment directly at the tighter
// ratio.

func TestPAARecodeEquivalentToDirect(t *testing.T) {
	sig := smoothSignal(1024, 30)
	paa := NewPAA()
	first := paaEncode(nil, sig, 4)
	// Pick the ratio whose budget-derived window is exactly 16 = 4×4, so
	// the merge is a whole multiple and must be exact.
	ratio16 := 523.0 / 8192
	if w := paaWindowForRatio(len(sig), ratio16); w != 16 {
		t.Fatalf("test setup: window = %d, want 16", w)
	}
	recoded, err := paa.Recode(first, ratio16)
	if err != nil {
		t.Fatal(err)
	}
	direct := paaEncode(nil, sig, 16)
	rv, err := Decompress(paa, recoded)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := Decompress(paa, direct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rv {
		if math.Abs(rv[i]-dv[i]) > 1e-9 {
			t.Fatalf("value %d: recoded %v vs direct %v", i, rv[i], dv[i])
		}
	}
}

func TestPAARecodePreservesGlobalMean(t *testing.T) {
	sig := smoothSignal(1000, 31)
	paa := NewPAA()
	enc, err := paa.CompressRatio(sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var rawSum float64
	for _, v := range sig {
		rawSum += v
	}
	for _, ratio := range []float64{0.25, 0.1, 0.04} {
		enc, err = paa.Recode(enc, ratio)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decompress(paa, enc)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range dec {
			sum += v
		}
		if math.Abs(sum-rawSum) > 1e-6*math.Abs(rawSum) {
			t.Fatalf("ratio %v: repeated recoding drifted the mean: %v vs %v", ratio, sum, rawSum)
		}
	}
}

// fftCoefs decodes every coefficient record of an FFT encoding.
func fftCoefs(t *testing.T, data []byte) (n int, coefs []fftCoef) {
	t.Helper()
	n, k, recs, err := countedHeader(data, fftCoefBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		c, err := fftCoefAt(recs, i, n)
		if err != nil {
			t.Fatal(err)
		}
		coefs = append(coefs, c)
	}
	return n, coefs
}

func TestFFTRecodeKeepsCoefficientSubset(t *testing.T) {
	sig := smoothSignal(512, 32)
	fft := NewFFT()
	big, err := fft.CompressRatio(sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	small, err := fft.Recode(big, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	nBig, bigCoefs := fftCoefs(t, big.Data)
	nSmall, smallCoefs := fftCoefs(t, small.Data)
	if nBig != nSmall {
		t.Fatal("N changed")
	}
	if len(smallCoefs) >= len(bigCoefs) {
		t.Fatalf("recode kept %d of %d coefficients", len(smallCoefs), len(bigCoefs))
	}
	set := map[int]complex128{}
	for _, c := range bigCoefs {
		set[c.idx] = c.val
	}
	for _, c := range smallCoefs {
		v, ok := set[c.idx]
		if !ok {
			t.Fatalf("recode invented coefficient %d", c.idx)
		}
		if v != c.val {
			t.Fatalf("recode altered coefficient %d", c.idx)
		}
	}
}

func TestBUFFRecodeEquivalentToDirectTruncation(t *testing.T) {
	sig := smoothSignal(1000, 33)
	bl := NewBUFFLossy(testPrecision)
	mid, err := bl.CompressRatio(sig, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	recoded, err := bl.Recode(mid, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := bl.CompressRatio(sig, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := Decompress(bl, recoded)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := Decompress(bl, direct)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv) != len(dv) {
		t.Fatal("length mismatch")
	}
	// Bit truncation is associative: truncating 0.4→0.2 equals truncating
	// 1.0→0.2 whenever the stored widths match.
	if recoded.Size() != direct.Size() {
		t.Fatalf("sizes differ: recoded %d vs direct %d", recoded.Size(), direct.Size())
	}
	for i := range rv {
		if rv[i] != dv[i] {
			t.Fatalf("value %d: recoded %v vs direct %v", i, rv[i], dv[i])
		}
	}
}

func TestPLARecodeMatchesVirtualLSQ(t *testing.T) {
	// PLA's analytic merge must equal a least-squares fit over the
	// *reconstructed* (virtually decompressed) values.
	sig := smoothSignal(512, 34)
	pla := NewPLA()
	first, err := pla.CompressRatio(sig, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	reconstructed, err := Decompress(pla, first)
	if err != nil {
		t.Fatal(err)
	}
	recoded, err := pla.Recode(first, 0.0625)
	if err != nil {
		t.Fatal(err)
	}
	// Fit the reconstructed values directly at the recoded piece length.
	_, pieceLen, recs, err := windowedHeader(recoded.Data, plaPieceBytes)
	if err != nil {
		t.Fatal(err)
	}
	for pi := 0; len(recs) > 0; pi, recs = pi+1, recs[plaPieceBytes:] {
		start := pi * pieceLen
		end := min(start+pieceLen, len(reconstructed))
		slope, intercept := lsqFit(reconstructed[start:end])
		if gotSlope, gotIntercept := f64At(recs), f64At(recs[8:]); math.Abs(slope-gotSlope) > 1e-6 || math.Abs(intercept-gotIntercept) > 1e-6 {
			t.Fatalf("piece %d: analytic (%.9f,%.9f) vs direct LSQ (%.9f,%.9f)",
				pi, gotSlope, gotIntercept, slope, intercept)
		}
	}
}

func TestRepeatedRecodingConvergesToFloor(t *testing.T) {
	sig := smoothSignal(1000, 35)
	for _, c := range lossyCodecs() {
		rec := c.(Recoder)
		enc, err := c.CompressRatio(sig, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		ratio := 0.5
		for i := 0; i < 20; i++ {
			ratio /= 2
			next, err := rec.Recode(enc, ratio)
			if err != nil {
				break // hit the codec's floor: acceptable
			}
			if next.Size() > enc.Size() {
				t.Fatalf("%s: recode grew at step %d", c.Name(), i)
			}
			enc = next
		}
		// Whatever the floor, the result must still decode to full length.
		dec, err := Decompress(c, enc)
		if err != nil {
			t.Fatalf("%s: floor representation broken: %v", c.Name(), err)
		}
		if len(dec) != len(sig) {
			t.Fatalf("%s: floor length %d", c.Name(), len(dec))
		}
	}
}

// TestFFTRecodeRejectsMirroredBin: DecompressInto tolerates a record whose
// bin lies above n/2 (it mirrors it), but the encoder never writes one and
// Recode ranks the half-spectrum only, so it must reject the record
// instead of indexing past the half.
func TestFFTRecodeRejectsMirroredBin(t *testing.T) {
	data := putCountedHeader(nil, 8, 2, fftCoefBytes)
	for _, idx := range []uint32{0, 6} {
		data = binary.LittleEndian.AppendUint32(data, idx)
		data = binary.LittleEndian.AppendUint32(data, math.Float32bits(1))
		data = binary.LittleEndian.AppendUint32(data, 0)
	}
	enc := Encoded{Codec: "fft", Data: data, N: 8}
	if _, err := NewFFT().DecompressInto(nil, enc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, err := NewFFT().Recode(enc, 0.4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recode of a bin above n/2: err = %v, want ErrCorrupt", err)
	}
}

// forgedFFTCount is a 30-byte payload whose header claims 11.5 million
// points and no coefficient: before fftHeader it decoded, after an inverse
// transform of that many zeros (17.8 s and a 256 MB pooled spectrum), and
// Recode zeroed a half-spectrum of it before looking at the ratio.
func forgedFFTCount() []byte {
	data := putUvarint(putUvarint(nil, 11_500_000), 0)
	for len(data) < 30 {
		data = append(data, 0xa5)
	}
	return data
}

// TestFFTForgedCountRejected: every reader of an FFT payload rejects a
// count the payload cannot vouch for before doing work that grows with it —
// no coefficient at all, whatever the metadata says, and a count that
// disagrees with the metadata where the caller supplied it.
func TestFFTForgedCountRejected(t *testing.T) {
	oneCoef := putCountedHeader(nil, 11_500_000, 1, fftCoefBytes)
	oneCoef = append(oneCoef, make([]byte, fftCoefBytes)...)
	fft := NewFFT()
	for _, enc := range []Encoded{
		{Codec: "fft", Data: forgedFFTCount()},
		{Codec: "fft", Data: forgedFFTCount(), N: 11_500_000},
		{Codec: "fft", Data: oneCoef, N: 128},
	} {
		if _, err := fft.DecompressInto(nil, enc); !errors.Is(err, ErrCorrupt) {
			t.Errorf("N=%d, %d bytes: decode err = %v, want ErrCorrupt", enc.N, len(enc.Data), err)
		}
		if _, err := fft.Recode(enc, 0.5); !errors.Is(err, ErrCorrupt) {
			t.Errorf("N=%d, %d bytes: Recode err = %v, want ErrCorrupt", enc.N, len(enc.Data), err)
		}
		if _, err := fft.SumEncoded(enc); !errors.Is(err, ErrCorrupt) {
			t.Errorf("N=%d, %d bytes: SumEncoded err = %v, want ErrCorrupt", enc.N, len(enc.Data), err)
		}
	}
}

// TestRecodeIntoMatchesRecode is the differential pin for the dst form:
// for every Recoder of DefaultRegistry(4), on the golden inputs, RecodeInto
// must return exactly what Recode does (bytes, N, codec and error) whether
// dst is nil, too short, or roomy and full of garbage, must leave its input
// untouched, and must write a new encoding into a dst with room for it.
func TestRecodeIntoMatchesRecode(t *testing.T) {
	reg := DefaultRegistry(4)
	recoders := 0
	for _, name := range reg.Names() {
		c, _ := reg.Lookup(name)
		rec, ok := c.(Recoder)
		if !ok {
			continue
		}
		recoders++
		for _, n := range goldenLengths {
			for ds, values := range goldenSegments(n) {
				at02, err := rec.CompressRatio(values, 0.2)
				if err != nil {
					continue
				}
				orig := bytes.Clone(at02.Data)
				for _, to := range []float64{0.1, 0.04} {
					want, wantErr := rec.Recode(at02, to)
					garbage := bytes.Repeat([]byte{0xEE}, 8*n+64)
					for _, dst := range []struct {
						name string
						b    []byte
					}{
						{"nil", nil},
						{"short", []byte{0xAA, 0xBB, 0xCC}[:1]},
						{"garbage", garbage[:5]},
					} {
						got, err := rec.RecodeInto(dst.b, at02, to)
						where := fmt.Sprintf("%s/%s/%d to %v, %s dst", name, ds, n, to, dst.name)
						if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
							t.Fatalf("%s: error %v, Recode's %v", where, err, wantErr)
						}
						if err != nil {
							continue
						}
						if got.Codec != want.Codec || got.N != want.N || !bytes.Equal(got.Data, want.Data) {
							t.Fatalf("%s: %d bytes differ from Recode's %d", where, got.Size(), want.Size())
						}
						if !bytes.Equal(at02.Data, orig) {
							t.Fatalf("%s: the input encoding was modified", where)
						}
						if dst.name == "garbage" && got.Size() < at02.Size() && &got.Data[0] != &garbage[0] {
							t.Fatalf("%s: a new encoding did not go into dst", where)
						}
					}
				}
			}
		}
	}
	if recoders != 6 {
		t.Fatalf("%d Recoders in the default registry, want 6", recoders)
	}
}
