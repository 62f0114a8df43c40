package core

import (
	"repro/internal/query"
	"repro/internal/store"
)

// QueryFiltered runs an aggregation over the values that satisfy pred,
// and reports each segment's qualified-entry ratio to the segment
// management policy — the informativeness signal of paper §IV-B2. With the
// default LRU policy the ratio degrades to a plain access; with
// store.Informativeness it weights future recoding victims.
func (e *OfflineEngine) QueryFiltered(agg query.Agg, pred func(float64) bool) (float64, error) {
	var qualified []float64
	for i, stored := 0, e.stored(); i < stored; i++ {
		values, err := e.reg.Decompress(e.enc(e.nth(i)))
		if err != nil {
			return 0, err
		}
		n := 0
		for _, v := range values {
			if pred(v) {
				qualified = append(qualified, v)
				n++
			}
		}
		ratio := 0.0
		if len(values) > 0 {
			ratio = float64(n) / float64(len(values))
		}
		store.RecordContribution(e.policy, e.slot(i), ratio)
	}
	return query.Apply(agg, qualified)
}
