package compress

import (
	"testing"

	"repro/internal/datasets"
)

// BenchmarkCodecs times every DefaultRegistry codec on a pool of 512
// seed-11 CBF segments of 128 points, with reused buffers: the encode
// (CompressInto, or CompressRatioInto at 0.15 for a lossy codec),
// DecompressInto of what it encoded and, for a Recoder, RecodeInto of each
// encoding to half its ratio. Throughput is in raw segment bytes. `make
// bench-smoke` runs it once, so a codec that starts failing breaks the
// build, not just the numbers.
func BenchmarkCodecs(b *testing.B) {
	segs, _ := datasets.CBF(512, datasets.CBFConfig{Seed: 11})
	rawBytes := int64(8 * len(segs[0]))
	reg := DefaultRegistry(4)
	for _, name := range reg.Names() {
		c, _ := reg.Lookup(name)
		encode := c.CompressInto
		if lc, ok := c.(LossyCodec); ok {
			encode = func(dst []byte, values []float64) (Encoded, error) {
				return lc.CompressRatioInto(dst, values, 0.15)
			}
		}
		encs := make([]Encoded, len(segs))
		for i, seg := range segs {
			enc, err := encode(nil, seg)
			if err != nil {
				b.Fatalf("%s: %v", name, err)
			}
			encs[i] = enc
		}
		b.Run(name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(rawBytes)
			var buf []byte
			for i := 0; i < b.N; i++ {
				enc, err := encode(buf, segs[i%len(segs)])
				if err != nil {
					b.Fatal(err)
				}
				buf = enc.Data
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(rawBytes)
			var buf []float64
			for i := 0; i < b.N; i++ {
				vals, err := c.DecompressInto(buf, encs[i%len(encs)])
				if err != nil {
					b.Fatal(err)
				}
				buf = vals
			}
		})
		rec, ok := c.(Recoder)
		if !ok {
			continue
		}
		b.Run(name+"/recode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(rawBytes)
			var buf []byte
			for i := 0; i < b.N; i++ {
				enc := encs[i%len(encs)]
				out, err := rec.RecodeInto(buf, enc, enc.Ratio()/2)
				if err != nil {
					b.Fatal(err)
				}
				buf = out.Data
			}
		})
	}
}
