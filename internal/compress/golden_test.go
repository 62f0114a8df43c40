package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/datasets"
)

// Golden-bytes differential test: testdata/golden_encodings.txt holds the
// SHA-256 of every codec's encoding (and of what it decodes to) of seeded
// CBF and plateau segments, as recorded at commit 7342617, the last one
// where each codec still had its allocating Compress method; the lossy
// codecs' ratio-driven lines (ratio 0.05, minratio, recode) were recorded
// at commit 8b1a8a7, before their encoders were ported to one exact-size
// allocation. A port that changes a single output byte or decoded bit —
// or turns an error into a success, or the reverse — fails here. To change a format on purpose,
// replace the lines the failure message names.

var goldenLengths = []int{1, 8, 9, 64, 65, 256}

// goldenSegments returns the two seeded inputs at length n: a CBF series
// (high entropy, precision 4) and a ShiftStream plateau series (8 levels).
func goldenSegments(n int) map[string][]float64 {
	cbf, _ := datasets.CBF(1, datasets.CBFConfig{Length: n, Seed: 7})
	shift := datasets.NewShiftStream(2, n, 7)
	shift.Next() // phase 0 is CBF again; the plateau is the second series
	plateau, _ := shift.Next()
	return map[string][]float64{"cbf": cbf[0], "plateau": plateau}
}

// goldenDigest hashes the encoding and, decoded into a dirty dst, the bit
// patterns of the values it decodes to.
func goldenDigest(c Codec, enc Encoded, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	vals, err := c.DecompressInto([]float64{math.NaN(), math.Inf(1), 7}[:2], enc)
	if err != nil {
		return "decode error: " + err.Error()
	}
	raw := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	encSum, decSum := sha256.Sum256(enc.Data), sha256.Sum256(raw)
	return fmt.Sprintf("n=%d enc=%s dec=%s", enc.N, hex.EncodeToString(encSum[:]), hex.EncodeToString(decSum[:]))
}

// goldenLines computes "codec/mode/dataset/len digest" for every codec of
// ExtendedRegistry(4) — a superset of DefaultRegistry(4) built from the
// same constructors — through encode (the "into" lines) and, for lossy
// codecs, ratio (CompressRatio or CompressRatioInto) at 0.2 and 0.05,
// MinRatio (exact, as %b) and, for Recoders whose 0.2 encoding succeeded,
// Recode of it to 0.1 and 0.04.
func goldenLines(encode func(c Codec, values []float64) (Encoded, error), ratio func(lc LossyCodec, values []float64, r float64) (Encoded, error)) []string {
	reg := ExtendedRegistry(4)
	var lines []string
	for _, name := range reg.Names() {
		c, _ := reg.Lookup(name)
		for _, n := range goldenLengths {
			segs := goldenSegments(n)
			for _, ds := range []string{"cbf", "plateau"} {
				enc, err := encode(c, segs[ds])
				lines = append(lines, fmt.Sprintf("%s/into/%s/%d %s", name, ds, n, goldenDigest(c, enc, err)))
				lc, ok := c.(LossyCodec)
				if !ok {
					continue
				}
				at02, err02 := ratio(lc, segs[ds], 0.2)
				lines = append(lines, fmt.Sprintf("%s/ratio0.2/%s/%d %s", name, ds, n, goldenDigest(c, at02, err02)))
				enc, err = ratio(lc, segs[ds], 0.05)
				lines = append(lines, fmt.Sprintf("%s/ratio0.05/%s/%d %s", name, ds, n, goldenDigest(c, enc, err)))
				lines = append(lines, fmt.Sprintf("%s/minratio/%s/%d %b", name, ds, n, lc.MinRatio(segs[ds])))
				rec, ok := c.(Recoder)
				if !ok || err02 != nil {
					continue
				}
				for _, to := range []float64{0.1, 0.04} {
					enc, err := rec.Recode(at02, to)
					lines = append(lines, fmt.Sprintf("%s/recode0.2-%v/%s/%d %s", name, to, ds, n, goldenDigest(c, enc, err)))
				}
			}
		}
	}
	return lines
}

func TestGoldenEncodings(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_encodings.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	// A dst that is dirty and too small: the encoder must not leak its
	// bytes, and must grow it.
	intoDirty := func(c Codec, values []float64) (Encoded, error) {
		return CompressInto(c, []byte{0xAA, 0xBB, 0xCC, 0xDD}[:3], values)
	}
	for _, pass := range []struct {
		name   string
		encode func(c Codec, values []float64) (Encoded, error)
		ratio  func(lc LossyCodec, values []float64, r float64) (Encoded, error)
	}{
		{"CompressRatio", intoDirty, LossyCodec.CompressRatio},
		// A dst full of garbage with room for any of these encodings: the
		// encoder must write into it and read none of it.
		{"CompressRatioInto", intoDirty, func(lc LossyCodec, values []float64, r float64) (Encoded, error) {
			dirty := bytes.Repeat([]byte{0xEE}, 8*len(values)+64)
			return lc.CompressRatioInto(dirty[:5], values, r)
		}},
		// The nil-dst form, through pooled scratch that every codec before
		// this one has left dirty.
		{"Compress", Compress, LossyCodec.CompressRatio},
	} {
		t.Run(pass.name, func(t *testing.T) {
			got := goldenLines(pass.encode, pass.ratio)
			if len(got) != len(want) {
				t.Fatalf("golden file has %d lines, the registry produces %d", len(want), len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("encoding changed:\n want %s\n got  %s", want[i], got[i])
				}
			}
		})
	}
}
