package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Fleet health board: the per-device scoreboard behind /debug/fleet.
// Every layer that owns one slice of a device's health reports into the
// same DeviceHealth entry — the uplink its spool depth and watermark, the
// collector its delivery/redelivery/kick/eviction counts, the engine its
// deadline rejects and fallbacks (PR 9) — so the board is the one place
// the whole fleet's state is visible at a glance.
//
// Hot paths cache the *DeviceHealth pointer once (uplink construction,
// collector attach) and then touch only atomics; the board's map and lock
// are read-path-only. All methods are nil-receiver safe so uninstrumented
// runs pay a single branch.
//
// Unlike span records, the board is an operational snapshot, not a trace:
// last-delivery staleness is wall-clock by design (obs is not a seeded
// package) and never feeds back into decisions.

// DeviceHealth is one device's live health entry. All fields are atomics;
// update methods are safe from any goroutine and allocation-free.
type DeviceHealth struct {
	device            uint64
	spoolDepth        atomic.Int64
	spoolAcked        atomic.Uint64 // device-side ACK watermark
	spooled           atomic.Uint64 // highest enqueued frame ID + 1
	watermark         atomic.Uint64 // collector-side next expected ID
	delivered         atomic.Uint64
	redelivered       atomic.Uint64
	kicks             atomic.Uint64
	evictions         atomic.Uint64
	lastAckBatch      atomic.Uint64
	deadlineRejects   atomic.Uint64
	deadlineFallbacks atomic.Uint64
	lastDeliveryNanos atomic.Int64 // wall clock; 0 = never delivered
}

// SetSpoolDepth records the device-side spool depth (pending frames).
func (h *DeviceHealth) SetSpoolDepth(depth int64) {
	if h != nil {
		h.spoolDepth.Store(depth)
	}
}

// NoteSpooled records a frame entering the spool, advancing the highest
// enqueued ID watermark.
func (h *DeviceHealth) NoteSpooled(frameID uint64) {
	if h == nil {
		return
	}
	for {
		cur := h.spooled.Load()
		if frameID+1 <= cur || h.spooled.CompareAndSwap(cur, frameID+1) {
			return
		}
	}
}

// SetSpoolAcked records the device-side cumulative ACK watermark.
func (h *DeviceHealth) SetSpoolAcked(next uint64) {
	if h != nil {
		h.spoolAcked.Store(next)
	}
}

// SetWatermark records the collector-side next-expected-ID watermark.
func (h *DeviceHealth) SetWatermark(next uint64) {
	if h != nil {
		h.watermark.Store(next)
	}
}

// NoteDelivery records one exactly-once delivery at the collector and
// stamps the staleness clock.
func (h *DeviceHealth) NoteDelivery() {
	if h == nil {
		return
	}
	h.delivered.Add(1)
	h.lastDeliveryNanos.Store(time.Now().UnixNano())
}

// NoteRedelivery records one duplicate frame dropped by the collector.
func (h *DeviceHealth) NoteRedelivery() {
	if h != nil {
		h.redelivered.Add(1)
	}
}

// NoteKick records the collector kicking the device's previous session.
func (h *DeviceHealth) NoteKick() {
	if h != nil {
		h.kicks.Add(1)
	}
}

// NoteEviction records the collector evicting the device's idle state.
func (h *DeviceHealth) NoteEviction() {
	if h != nil {
		h.evictions.Add(1)
	}
}

// NoteAckBatch records the size of the latest coalesced ACK batch.
func (h *DeviceHealth) NoteAckBatch(frames uint64) {
	if h != nil {
		h.lastAckBatch.Store(frames)
	}
}

// NoteDeadlineReject records arms masked out by the deadline gate.
func (h *DeviceHealth) NoteDeadlineReject(n uint64) {
	if h != nil && n > 0 {
		h.deadlineRejects.Add(n)
	}
}

// NoteDeadlineFallback records a deadline-gate fallback to the fastest arm.
func (h *DeviceHealth) NoteDeadlineFallback() {
	if h != nil {
		h.deadlineFallbacks.Add(1)
	}
}

// DeviceHealthSnapshot is one scoreboard row, JSON-shaped for
// /debug/fleet.
type DeviceHealthSnapshot struct {
	Device     uint64 `json:"device"`
	SpoolDepth int64  `json:"spool_depth"`
	// SpoolAcked is the device-side cumulative ACK watermark.
	SpoolAcked uint64 `json:"spool_acked"`
	// Watermark is the collector-side next expected frame ID.
	Watermark uint64 `json:"watermark"`
	// WatermarkLag is the in-flight backlog: frames spooled by the device
	// but not yet covered by the collector watermark.
	WatermarkLag      int64  `json:"watermark_lag"`
	Delivered         uint64 `json:"delivered"`
	Redelivered       uint64 `json:"redelivered"`
	SessionKicks      uint64 `json:"session_kicks"`
	Evictions         uint64 `json:"evictions"`
	LastAckBatch      uint64 `json:"last_ack_batch"`
	DeadlineRejects   uint64 `json:"deadline_rejects"`
	DeadlineFallbacks uint64 `json:"deadline_fallbacks"`
	// StalenessSeconds is the wall-clock age of the last collector
	// delivery (-1 when the device never delivered).
	StalenessSeconds float64 `json:"staleness_seconds"`
}

// snapshot reads every atomic once into a row.
func (h *DeviceHealth) snapshot(now time.Time) DeviceHealthSnapshot {
	s := DeviceHealthSnapshot{
		Device:            h.device,
		SpoolDepth:        h.spoolDepth.Load(),
		SpoolAcked:        h.spoolAcked.Load(),
		Watermark:         h.watermark.Load(),
		Delivered:         h.delivered.Load(),
		Redelivered:       h.redelivered.Load(),
		SessionKicks:      h.kicks.Load(),
		Evictions:         h.evictions.Load(),
		LastAckBatch:      h.lastAckBatch.Load(),
		DeadlineRejects:   h.deadlineRejects.Load(),
		DeadlineFallbacks: h.deadlineFallbacks.Load(),
		StalenessSeconds:  -1,
	}
	if lag := int64(h.spooled.Load()) - int64(s.Watermark); lag > 0 {
		s.WatermarkLag = lag
	}
	if ns := h.lastDeliveryNanos.Load(); ns > 0 {
		s.StalenessSeconds = now.Sub(time.Unix(0, ns)).Seconds()
	}
	return s
}

// FleetBoard maps device IDs to their health entries. Device is
// get-or-create and intended to be called once per device per layer (the
// returned pointer is then cached); Snapshot is the read path.
type FleetBoard struct {
	mu      sync.Mutex
	devices map[uint64]*DeviceHealth // guarded by mu
}

// NewFleetBoard builds an empty board.
func NewFleetBoard() *FleetBoard {
	return &FleetBoard{devices: make(map[uint64]*DeviceHealth)}
}

// Device returns the health entry for id, creating it on first use.
// Returns nil on a nil board, and nil DeviceHealth methods are no-ops, so
// callers cache the result unconditionally.
func (b *FleetBoard) Device(id uint64) *DeviceHealth {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.devices[id]
	if !ok {
		h = &DeviceHealth{device: id}
		b.devices[id] = h
	}
	return h
}

// Snapshot returns one row per tracked device, sorted by device ID.
func (b *FleetBoard) Snapshot() []DeviceHealthSnapshot {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	entries := make([]*DeviceHealth, 0, len(b.devices))
	for _, h := range b.devices {
		entries = append(entries, h)
	}
	b.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].device < entries[j].device })
	now := time.Now()
	out := make([]DeviceHealthSnapshot, len(entries))
	for i, h := range entries {
		out[i] = h.snapshot(now)
	}
	return out
}
