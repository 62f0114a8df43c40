package core

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/query"
	"repro/internal/store"
)

// fold accumulates Sum, Avg, Min and Max, so that no query collects the
// points it aggregates. It compares as query.Apply does: a NaN point
// counts toward the sum and count but never becomes the min or max.
type fold struct {
	sum    float64
	n      int
	lo, hi float64
}

func newFold() fold { return fold{lo: math.Inf(1), hi: math.Inf(-1)} }

func (f *fold) add(v float64) {
	f.sum += v
	f.n++
	f.extrema(v, v)
}

func (f *fold) extrema(lo, hi float64) {
	if lo < f.lo {
		f.lo = lo
	}
	if hi > f.hi {
		f.hi = hi
	}
}

// result is agg over what was folded, query.ErrEmpty when nothing was.
func (f *fold) result(agg query.Agg) (float64, error) {
	if f.n == 0 {
		return 0, query.ErrEmpty
	}
	switch agg {
	case query.Sum:
		return f.sum, nil
	case query.Avg:
		return f.sum / float64(f.n), nil
	case query.Min:
		return f.lo, nil
	case query.Max:
		return f.hi, nil
	}
	return 0, fmt.Errorf("core: unknown aggregation %d", agg)
}

// direct folds r's segment in place when its codec has an in-situ operator
// for agg (paper §II's "specialized operators operating on encoded columns
// directly") and reports whether it did. A lossless segment is never summed
// in place: folded point by point instead, a lossless store's Sum is
// bit-identical to summing its points in order.
func (f *fold) direct(reg *compress.Registry, agg query.Agg, r *row, enc compress.Encoded) (bool, error) {
	codec, _ := reg.Lookup(enc.Codec)
	switch agg {
	case query.Sum, query.Avg:
		if ds, ok := codec.(compress.DirectSummer); ok && !r.lossless {
			s, err := ds.SumEncoded(enc)
			f.sum += s
			f.n += enc.N
			return true, err
		}
	case query.Min, query.Max:
		if mm, ok := codec.(compress.DirectMinMaxer); ok {
			lo, hi, err := mm.MinMaxEncoded(enc)
			f.extrema(lo, hi)
			f.n += enc.N
			return true, err
		}
	}
	return false, nil
}

// Query runs an aggregation over every stored segment, in place where the
// codec allows and through one reused decode buffer otherwise; the access
// moves each segment to the MRU end of the policy list, protecting it from
// recoding (paper §IV-F).
func (e *OfflineEngine) Query(agg query.Agg) (float64, error) {
	f := newFold()
	var dec []float64
	for i, stored := 0, e.stored(); i < stored; i++ {
		e.policy.Get(e.slot(i)) // records the access
		r := e.nth(i)
		enc := e.enc(r)
		ok, err := f.direct(e.reg, agg, r, enc)
		if err != nil {
			return 0, err
		}
		if ok {
			continue
		}
		if dec, err = e.reg.DecompressInto(dec[:0], enc); err != nil {
			return 0, err
		}
		for _, v := range dec {
			f.add(v)
		}
	}
	return f.result(agg)
}

// QueryRange aggregates over the virtual-time window [fromSec, toSec):
// segments overlapping the window are decoded and the points whose
// timestamps fall inside it contribute. Time-windowed dashboards are the
// canonical workload the paper's aggregation targets serve.
func (e *OfflineEngine) QueryRange(agg query.Agg, fromSec, toSec float64) (float64, error) {
	if toSec <= fromSec {
		return 0, query.ErrEmpty
	}
	f := newFold()
	var dec []float64
	for i, stored := 0, e.stored(); i < stored; i++ {
		r := e.nth(i)
		start, end := e.startSec(r), r.endSec
		if end <= fromSec || start >= toSec {
			continue
		}
		e.policy.Get(e.slot(i)) // range queries are accesses too
		var err error
		if dec, err = e.reg.DecompressInto(dec[:0], e.enc(r)); err != nil {
			return 0, err
		}
		step := (end - start) / float64(len(dec))
		for i, v := range dec {
			if ts := start + float64(i)*step; ts >= fromSec && ts < toSec {
				f.add(v)
			}
		}
	}
	return f.result(agg)
}

// QueryFiltered runs an aggregation over the values that satisfy pred,
// and reports each segment's qualified-entry ratio to the segment
// management policy — the informativeness signal of paper §IV-B2. With the
// default LRU policy the ratio degrades to a plain access; with
// store.Informativeness it weights future recoding victims.
func (e *OfflineEngine) QueryFiltered(agg query.Agg, pred func(float64) bool) (float64, error) {
	f := newFold()
	var dec []float64
	for i, stored := 0, e.stored(); i < stored; i++ {
		var err error
		if dec, err = e.reg.DecompressInto(dec[:0], e.enc(e.nth(i))); err != nil {
			return 0, err
		}
		n := 0
		for _, v := range dec {
			if pred(v) {
				f.add(v)
				n++
			}
		}
		ratio := 0.0
		if len(dec) > 0 {
			ratio = float64(n) / float64(len(dec))
		}
		store.RecordContribution(e.policy, e.slot(i), ratio)
	}
	return f.result(agg)
}
