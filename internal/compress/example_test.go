package compress_test

import (
	"fmt"

	"repro/internal/compress"
)

// Lossless round trip through the registry.
func ExampleRegistry() {
	reg := compress.DefaultRegistry(4)
	codec, _ := reg.Lookup("sprintz")
	values := []float64{1.5, 1.5, 1.75, 2.0, 2.0, 1.75}
	enc, err := compress.Compress(codec, values)
	if err != nil {
		panic(err)
	}
	decoded, err := reg.Decompress(enc)
	if err != nil {
		panic(err)
	}
	fmt.Println(decoded)
	// Output:
	// [1.5 1.5 1.75 2 2 1.75]
}

// Lossy compression to a target ratio, then direct recoding to a tighter
// one without decompressing ("virtual decompression", paper §IV-E).
func ExampleRecoder() {
	paa := compress.NewPAA()
	values := make([]float64, 256)
	for i := range values {
		values[i] = float64(i % 16)
	}
	enc, err := paa.CompressRatio(values, 0.25)
	if err != nil {
		panic(err)
	}
	smaller, err := paa.Recode(enc, 0.05)
	if err != nil {
		panic(err)
	}
	fmt.Printf("shrank: %v, same point count: %v\n",
		smaller.Size() < enc.Size(), smaller.N == enc.N)
	// Output:
	// shrank: true, same point count: true
}

// In-situ aggregation on the encoded form: PAA answers the sum exactly from
// its window means, and min and max as those of the means, without
// reconstructing any values.
func ExampleDirectSummer() {
	paa := compress.NewPAA()
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	enc, err := paa.CompressRatio(values, 0.5)
	if err != nil {
		panic(err)
	}
	sum, err := paa.SumEncoded(enc)
	if err != nil {
		panic(err)
	}
	lo, hi, err := paa.MinMaxEncoded(enc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sum=%v min=%v max=%v\n", sum, lo, hi)
	// Output:
	// sum=36 min=2 max=7.5
}
