package core

import "repro/internal/query"

// QueryRange aggregates over the virtual-time window [fromSec, toSec):
// segments overlapping the window are decompressed and the points whose
// timestamps fall inside it contribute. Time-windowed dashboards are the
// canonical workload the paper's aggregation targets serve.
func (e *OfflineEngine) QueryRange(agg query.Agg, fromSec, toSec float64) (float64, error) {
	if toSec <= fromSec {
		return 0, query.ErrEmpty
	}
	var window []float64
	for i, stored := 0, e.stored(); i < stored; i++ {
		r := e.nth(i)
		start, end := e.startSec(r), r.endSec
		if end <= fromSec || start >= toSec {
			continue
		}
		e.policy.Get(e.slot(i)) // range queries are accesses too
		values, err := e.reg.Decompress(e.enc(r))
		if err != nil {
			return 0, err
		}
		if len(values) == 0 {
			continue
		}
		step := (end - start) / float64(len(values))
		for i, v := range values {
			ts := start + float64(i)*step
			if ts >= fromSec && ts < toSec {
				window = append(window, v)
			}
		}
	}
	return query.Apply(agg, window)
}
