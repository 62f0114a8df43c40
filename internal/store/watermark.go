package store

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Watermarks is the compact, persistable half of the collector's
// per-device delivery state: one cumulative watermark (all IDs < next
// delivered) per device ID. The collector keeps full session state only
// for devices with a live or recent connection; everything else is
// evicted down to its watermark here, so a fleet of mostly-idle devices
// costs one map entry each instead of a session struct — and because the
// watermark survives the eviction (and, via WriteTo/ReadWatermarks, a
// collector restart), eviction can never re-open a delivered ID for
// redelivery. Dedup is only as durable as this table.
//
// Persistence format (varint-framed, sorted by device ID):
//
//	magic "AEW1" | uvarint count | per device: uvarint deviceID | uvarint next
type Watermarks struct {
	mu sync.Mutex
	m  map[uint64]uint64 // deviceID → next; guarded by mu
}

// NewWatermarks builds an empty table.
func NewWatermarks() *Watermarks {
	return &Watermarks{m: make(map[uint64]uint64)}
}

// Load returns the device's watermark and whether the device is known.
func (w *Watermarks) Load(deviceID uint64) (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	next, ok := w.m[deviceID]
	return next, ok
}

// Store records the device's watermark. Watermarks are cumulative and
// monotone, so a stale (smaller) value never overwrites a newer one —
// the call is safe to make from racing eviction and shutdown paths.
func (w *Watermarks) Store(deviceID, next uint64) {
	w.mu.Lock()
	if next > w.m[deviceID] {
		w.m[deviceID] = next
	}
	w.mu.Unlock()
}

// Len returns the number of tracked devices.
func (w *Watermarks) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.m)
}

var watermarkMagic = [4]byte{'A', 'E', 'W', '1'}

// WriteTo serializes the table (sorted by device ID) and returns the
// byte count written.
func (w *Watermarks) WriteTo(dst io.Writer) (int64, error) {
	w.mu.Lock()
	ids := make([]uint64, 0, len(w.m))
	for id := range w.m {
		ids = append(ids, id)
	}
	entries := make([][2]uint64, 0, len(ids))
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		entries = append(entries, [2]uint64{id, w.m[id]})
	}
	w.mu.Unlock()

	d := newDumpWriter(dst, watermarkMagic)
	d.uvarint(uint64(len(entries)))
	for _, e := range entries {
		d.uvarint(e[0])
		d.uvarint(e[1])
	}
	return d.flush()
}

// ReadWatermarks deserializes a table written by WriteTo. Truncated or
// foreign input is ErrBadFormat, never a silently partial table; so is
// anything WriteTo cannot have written (an overlong varint, device IDs out
// of order or repeated, a zero watermark Store would drop), which makes a
// table that reads back re-serialize to the same bytes.
func ReadWatermarks(src io.Reader) (*Watermarks, error) {
	const maxDevices = 1 << 30 // sanity bound against corrupt counts
	d, count, err := newDumpReader(src, watermarkMagic, maxDevices)
	if err != nil {
		return nil, err
	}
	w := NewWatermarks()
	var prevID uint64
	for i := uint64(0); i < count; i++ {
		id, next := d.uvarint(), d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if (i > 0 && id <= prevID) || next == 0 {
			return nil, fmt.Errorf("%w: device %d watermark %d after device %d", ErrBadFormat, id, next, prevID)
		}
		prevID = id
		w.Store(id, next)
	}
	return w, nil
}
