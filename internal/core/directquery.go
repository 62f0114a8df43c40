package core

import (
	"math"

	"repro/internal/compress"
	"repro/internal/query"
)

// QueryDirect answers an aggregation using in-situ operators on the
// encoded segments wherever the codec supports them (paper §II's
// "specialized operators operating on encoded columns directly"), falling
// back to decompression otherwise. Results equal Query()'s for Sum/Min/
// Max/Avg because the direct operators are exact with respect to the
// decompressed representation. Accesses are recorded like any query.
func (e *OfflineEngine) QueryDirect(agg query.Agg) (float64, error) {
	stored := e.stored()
	if stored == 0 {
		return 0, query.ErrEmpty
	}

	var sum float64
	var count int
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < stored; i++ {
		enc := e.enc(e.nth(i))
		e.policy.Get(e.slot(i)) // records the access
		codec, _ := e.reg.Lookup(enc.Codec)
		count += enc.N
		switch agg {
		case query.Sum, query.Avg:
			if ds, ok := codec.(compress.DirectSummer); ok {
				s, err := ds.SumEncoded(enc)
				if err != nil {
					return 0, err
				}
				sum += s
				continue
			}
		case query.Min, query.Max:
			if mm, ok := codec.(compress.DirectMinMaxer); ok {
				l, h, err := mm.MinMaxEncoded(enc)
				if err != nil {
					return 0, err
				}
				lo = math.Min(lo, l)
				hi = math.Max(hi, h)
				continue
			}
		}
		// Fallback: decompress this segment.
		values, err := e.reg.Decompress(enc)
		if err != nil {
			return 0, err
		}
		for _, v := range values {
			sum += v
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	switch agg {
	case query.Sum:
		return sum, nil
	case query.Avg:
		return sum / float64(count), nil
	case query.Min:
		return lo, nil
	case query.Max:
		return hi, nil
	default:
		return 0, query.ErrEmpty
	}
}
