package core

import (
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
// budget runs out; transmitted segments leave the engine and their storage
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

// Drain transmits as many segments as the window allows. ship, when not
// nil, is the link's say — the network protocol of §IV-B1, such as a
// transport uplink's Send: it is handed each segment before the segment
// leaves the engine, and its first error ends the window. The segment it
// refuses and everything after it stay stored as they were, sketch, cached
// loss and recoding order included, and the report covers only what left.
//
// What leaves owns its bytes: a sender such as an uplink spool keeps a
// payload until it is acknowledged, and the arena slice it came from is
// overwritten by the next Ingest. The window is therefore sized first and
// its payloads copied into one buffer.
func (e *OfflineEngine) Drain(bw sim.Bandwidth, seconds float64, ship func(*store.Entry) error) (DrainReport, error) {
	budget := int64(float64(bw) * seconds)
	var report DrainReport
	var err error

	// The window is the oldest segments (ascending id = ingest order) that
	// fit the budget.
	n, size := 0, int64(0)
	for stored := e.stored(); n < stored; n++ {
		s := int64(e.nth(n).size)
		if size+s > budget {
			break
		}
		size += s
	}
	buf := make([]byte, 0, size)
	for i := 0; i < n; i++ {
		// Ship a copy without the engine's own sketch.
		sent := e.entry(e.slot(i), nil)
		off := len(buf)
		buf = append(buf, sent.Enc.Data...)
		sent.Enc.Data = buf[off:len(buf):len(buf)]
		if ship != nil {
			if err = ship(&sent); err != nil {
				break
			}
		}
		report.SegmentsSent++
		report.BytesSent += int64(sent.Enc.Size())
		report.Sent = append(report.Sent, sent)
		e.policy.Remove(e.slot(i))
		e.storage.Free(int64(sent.Enc.Size()))
	}
	// Forget the drained rows, and every chunk they empty.
	e.statsMu.Lock()
	e.head += report.SegmentsSent
	for len(e.rows) > 0 && e.head >= rowChunk {
		e.chunks[e.rows[0]] = chunk{}
		e.rows, e.head = e.rows[1:], e.head-rowChunk
	}
	e.statsMu.Unlock()
	report.SegmentsLeft = e.stored()
	report.BytesLeft = e.storage.Used()
	return report, err
}
