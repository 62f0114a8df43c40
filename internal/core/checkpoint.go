package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/store"
)

// Checkpoint/restore: an offline edge node must survive restarts without
// losing its accumulated (and already heavily recoded) data. SaveTo
// persists the compressed pool with all segment metadata using the
// store persistence format; ResumeOfflineEngine rebuilds an engine around
// the restored pool, replaying storage accounting and re-registering every
// segment with the recoding policy in id (= age) order.
//
// Bandit state deliberately restarts cold: value estimates are cheap to
// re-learn and stale estimates across a restart boundary (device moved,
// workload changed) are worse than none.

// SaveTo writes the engine's pool to w and returns the byte count.
func (e *OfflineEngine) SaveTo(w io.Writer) (int64, error) {
	return e.pool.WriteTo(w)
}

// ResumeOfflineEngine builds an engine from cfg and a pool dump produced
// by SaveTo. The restored segments count against the configured storage
// budget immediately; if they exceed it (e.g. the budget was lowered),
// an error is returned rather than silently over-committing.
func ResumeOfflineEngine(cfg Config, r io.Reader) (*OfflineEngine, error) {
	e, err := NewOfflineEngine(cfg)
	if err != nil {
		return nil, err
	}
	dump, err := store.ReadPool(r, nil)
	if err != nil {
		return nil, err
	}
	var restored []*store.Entry
	var total int64
	dump.Each(func(en *store.Entry) {
		restored = append(restored, en)
		total += int64(en.Enc.Size())
	})
	if total > e.storage.Capacity() {
		return nil, fmt.Errorf("core: restored pool needs %d bytes, budget is %d: %w",
			total, e.storage.Capacity(), errRestoreOverBudget)
	}
	if err := e.storage.Alloc(total); err != nil {
		return nil, err
	}
	// The segments take rows and arena bytes in id order, as ingested ones
	// do, and join the policy in that order, as store.ReadPool's do.
	sort.Slice(restored, func(a, b int) bool { return restored[a].ID < restored[b].ID })
	for _, en := range restored {
		*e.nextRow() = *en
		e.keepRow(en.Enc.Data)
		e.nextID = en.ID + 1
	}
	return e, nil
}

var errRestoreOverBudget = fmt.Errorf("core: restored data exceeds the storage budget")
