package core

import (
	"math"
	"time"
)

// Deterministic codec cost model: the offline RecodeBudget simulation, the
// deadline gate and the speed reward's T_c all read it.
// The paper's Fig 14 finding is that Gorilla-based pairs exceed the
// storage budget at high ingest rates because "Gorilla decompression was
// more time-consuming than other baselines, delaying the recoding
// process". Wall-clock measurement of our Go codecs is realistic but noisy
// and host-dependent; this table fixes the relative costs (nanoseconds per
// point) so the experiment is reproducible, with the ordering taken from
// the paper: bit-serial XOR decoders (Gorilla, Chimp) are the slowest to
// decode, byte compressors are moderate, and the tunable lossy
// representations decode nearly for free.

// nanosecond-per-point costs by codec family.
var decodeCostNs = map[string]float64{
	"gorilla":   120, // bit-serial, window bookkeeping per value
	"chimp":     100,
	"gzip":      45,
	"zlib-1":    40,
	"zlib-6":    45,
	"zlib-9":    45,
	"snappy":    8,
	"dict":      12,
	"sprintz":   35,
	"buff":      15,
	"bufflossy": 15,
	"paa":       4,
	"pla":       5,
	"fft":       60, // inverse transform
	"lttb":      6,
	"rrdsample": 4,
}

var encodeCostNs = map[string]float64{
	"gorilla":   90,
	"chimp":     95,
	"gzip":      350,
	"zlib-1":    150,
	"zlib-6":    300,
	"zlib-9":    400,
	"snappy":    40,
	"dict":      30,
	"sprintz":   60,
	"buff":      30,
	"bufflossy": 30,
	"paa":       4,
	"pla":       10,
	"fft":       80, // forward transform + top-k selection
	"lttb":      12,
	"rrdsample": 4,
}

// DefaultCodecCost is the deterministic cost model: virtual seconds for
// op ("decode" or "encode") on points values by the named codec. Unknown
// codecs cost a moderate 50 ns/point.
func DefaultCodecCost(op, codec string, points int) float64 {
	table := decodeCostNs
	if op == "encode" {
		table = encodeCostNs
	}
	ns, ok := table[codec]
	if !ok {
		ns = 50
	}
	return ns * float64(points) / 1e9
}

// costDuration converts cost-model seconds to the Observation.Duration a
// speed term divides by, rounded to the nanosecond.
func costDuration(seconds float64) time.Duration {
	return time.Duration(math.Round(seconds * float64(time.Second)))
}
