package compress

import (
	"encoding/binary"
	"errors"
	"testing"
)

// rrdHeader builds an RRD-sample payload with the given count/window
// preamble followed by raw sample bytes.
func rrdHeader(count, window uint64, samples int) []byte {
	data := binary.AppendUvarint(nil, count)
	data = binary.AppendUvarint(data, window)
	for i := 0; i < 8*samples; i++ {
		data = append(data, 0)
	}
	return data
}

// TestRRDMalformedHugeCount is the regression test for an allocation bug
// that a static check for decode-path sizes taken from unbounded decoded
// lengths surfaced: with count and window both attacker-controlled,
// count=2^40 window=2^40 passed the samples-vs-expected consistency check
// with a single sample, yet sized the output allocation directly off
// count (≈8 TB for a 20-byte payload).
// Both decode paths must reject oversized counts before allocating.
func TestRRDMalformedHugeCount(t *testing.T) {
	r := NewRRDSample(1)
	cases := []struct {
		name          string
		count, window uint64
	}{
		{"huge count and window", 1 << 40, 1 << 40},
		{"huge count small window", 1 << 40, 1},
		{"huge window", 4, 1 << 40},
		{"zero count", 0, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := Encoded{Codec: r.Name(), Data: rrdHeader(tc.count, tc.window, 1), N: 4}
			if _, err := r.DecompressInto(nil, enc); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Decompress(count=%d, window=%d) err = %v, want ErrCorrupt", tc.count, tc.window, err)
			}
			if _, err := r.Recode(enc, 0.01); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Recode(count=%d, window=%d) err = %v, want ErrCorrupt", tc.count, tc.window, err)
			}
		})
	}
}

// TestRRDRoundTripStillWorks guards the fix against over-tightening: a
// legitimate encode/decode round trip is unaffected.
func TestRRDRoundTripStillWorks(t *testing.T) {
	r := NewRRDSample(1)
	values := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	enc, err := r.CompressRatio(values, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.DecompressInto(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(values) {
		t.Fatalf("round trip length = %d, want %d", len(out), len(values))
	}
}
