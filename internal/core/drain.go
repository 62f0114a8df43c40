package core

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/store"
)

// Drain offloads stored segments when a network connection (re)appears —
// the paper's offline mode exists precisely "for data offloading if a
// future network connection is expected" (§IV-B2); bandwidth planning at
// reconnection is called out as future work (§IV-C2), implemented here as
// an extension.
//
// The link carries bw bytes/second for `seconds` of virtual time. Segments
// are transmitted oldest-first (preserving history order) until the byte
// budget runs out; transmitted segments leave the pool and their storage
// is freed, making room for continued ingestion.

// DrainReport summarizes one offload window.
type DrainReport struct {
	// SegmentsSent and BytesSent describe what left the device.
	SegmentsSent int
	BytesSent    int64
	// SegmentsLeft and BytesLeft describe what remains stored.
	SegmentsLeft int
	BytesLeft    int64
	// Sent holds the transmitted representations, in transmission order,
	// for the receiving side.
	Sent []store.Entry
}

// Drain transmits as many segments as the window allows.
func (e *OfflineEngine) Drain(bw sim.Bandwidth, seconds float64) DrainReport {
	report, _ := e.drain(bw, seconds, nil)
	return report
}

// drain is Drain with a say for the link: ship, when not nil, is handed
// each segment before it leaves the pool, and its first error ends the
// window with that segment and everything after it still stored, untouched.
func (e *OfflineEngine) drain(bw sim.Bandwidth, seconds float64, ship func(*store.Entry) error) (DrainReport, error) {
	budget := int64(float64(bw) * seconds)
	var report DrainReport
	var err error

	// Snapshot candidates oldest-first (ascending id = ingest order).
	var candidates []*store.Entry
	e.pool.Each(func(en *store.Entry) { candidates = append(candidates, en) })
	sort.Slice(candidates, func(a, b int) bool { return candidates[a].ID < candidates[b].ID })

	for _, en := range candidates {
		size := int64(en.Enc.Size())
		if size > budget {
			break
		}
		if ship != nil {
			if err = ship(en); err != nil {
				break
			}
		}
		budget -= size
		report.SegmentsSent++
		report.BytesSent += size
		// Ship a copy without the engine's own sketch.
		sent := *en
		sent.Sketch = nil
		report.Sent = append(report.Sent, sent)
		e.pool.Remove(en.ID)
		e.storage.Free(size)
	}
	report.SegmentsLeft = e.pool.Len()
	report.BytesLeft = e.pool.TotalBytes()
	return report, err
}
