package core

import (
	"fmt"
	"io"

	"repro/internal/store"
)

// Checkpoint/restore: an offline edge node must survive restarts without
// losing its accumulated (and already heavily recoded) data. SaveTo
// persists the stored segments with all their metadata in the store
// persistence format; ResumeOfflineEngine rebuilds an engine around the
// restored segments, replaying storage accounting and re-registering every
// segment with the recoding policy in id (= age) order.
//
// Bandit state deliberately restarts cold: value estimates are cheap to
// re-learn and stale estimates across a restart boundary (device moved,
// workload changed) are worse than none.

// SaveTo writes the engine's stored segments to w and returns the byte
// count.
func (e *OfflineEngine) SaveTo(w io.Writer) (int64, error) {
	return store.WriteDump(w, e.stored(), e.row)
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
	// The segments take rows and arena bytes in id order, as ingested ones
	// do, and join the policy in that order. A segment whose codec the
	// registry lacks could never be queried or recoded, so it fails the
	// resume rather than the first query.
	if err := store.ReadDump(r, func(en *store.Entry) error {
		if _, ok := e.reg.Lookup(en.Enc.Codec); !ok {
			return fmt.Errorf("core: restored segment %d uses codec %q, which the registry lacks", en.ID, en.Enc.Codec)
		}
		if err := e.storage.Alloc(int64(en.Enc.Size())); err != nil {
			return fmt.Errorf("core: restored segments exceed the budget of %d bytes: %w", e.storage.Capacity(), err)
		}
		*e.nextRow() = *en
		e.keepRow(en.Enc.Data)
		e.nextID = en.ID + 1
		return nil
	}); err != nil {
		return nil, err
	}
	return e, nil
}
