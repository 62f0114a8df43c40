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
		entry := e.row(i)
		if entry.EndSec <= fromSec || entry.StartSec >= toSec {
			continue
		}
		e.policy.Get(e.slot(i)) // range queries are accesses too
		values, err := e.reg.Decompress(entry.Enc)
		if err != nil {
			return 0, err
		}
		if len(values) == 0 {
			continue
		}
		step := (entry.EndSec - entry.StartSec) / float64(len(values))
		for i, v := range values {
			ts := entry.StartSec + float64(i)*step
			if ts >= fromSec && ts < toSec {
				window = append(window, v)
			}
		}
	}
	return query.Apply(agg, window)
}
