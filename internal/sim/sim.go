package sim

import (
	"errors"
	"fmt"
	"sync"
)

// Bandwidth is a link capacity in bytes per second.
type Bandwidth float64

// Network presets, sized so that a 4 M pts/s double-typed signal (32 MB/s
// raw) reproduces the paper's Fig 3 story: several lossless codecs fit
// under 4G, none under 3G.
const (
	Net2G Bandwidth = 0.04 * 1e6  // ~0.32 Mbps
	Net3G Bandwidth = 1.0 * 1e6   // ~8 Mbps
	Net4G Bandwidth = 12.5 * 1e6  // ~100 Mbps
	Net5G Bandwidth = 125.0 * 1e6 // ~1 Gbps
)

// MBps returns the capacity in megabytes per second.
func (b Bandwidth) MBps() float64 { return float64(b) / 1e6 }

// String implements fmt.Stringer.
func (b Bandwidth) String() string { return fmt.Sprintf("%.2f MB/s", b.MBps()) }

// Carries reports whether an egress rate (bytes/s) fits the link.
func (b Bandwidth) Carries(egressBytesPerSec float64) bool {
	return egressBytesPerSec <= float64(b)
}

// TargetRatio derives the provisional target compression ratio from the
// constraints, the paper's R = B/(64 × I) with B in bits/s and I in
// points/s (§IV-C1). Ratios above 1 are clamped to 1 (no compression
// needed to satisfy the link).
func TargetRatio(ingestPointsPerSec float64, bw Bandwidth) float64 {
	if ingestPointsPerSec <= 0 {
		return 1
	}
	r := float64(bw) * 8 / (64 * ingestPointsPerSec)
	if r > 1 {
		return 1
	}
	return r
}

// ErrBudgetExceeded is returned when an allocation would overflow the
// storage capacity — the hard failure mode of the paper's Fig 14
// (gorilla_fft and gorilla_pla exceeding the budget).
var ErrBudgetExceeded = errors.New("sim: storage budget exceeded")

// Storage is a thread-safe storage budget with a recoding threshold θ:
// when usage crosses θ×capacity the owner must recode to free space.
type Storage struct {
	mu        sync.Mutex
	capacity  int64
	used      int64
	threshold float64
}

// NewStorage builds a budget of capacity bytes with recoding threshold θ
// in (0,1]; θ of 0 selects the paper's default 0.8.
func NewStorage(capacity int64, threshold float64) *Storage {
	if threshold <= 0 || threshold > 1 {
		threshold = 0.8
	}
	return &Storage{capacity: capacity, threshold: threshold}
}

// Alloc reserves n bytes, failing if capacity would be exceeded.
func (s *Storage) Alloc(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.used+n > s.capacity {
		return ErrBudgetExceeded
	}
	s.used += n
	return nil
}

// Free releases n bytes.
func (s *Storage) Free(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.used -= n
	if s.used < 0 {
		s.used = 0
	}
}

// Resize adjusts an allocation by delta bytes (negative shrinks), failing
// on overflow. Used when a segment is recoded in place.
func (s *Storage) Resize(delta int64) error {
	if delta >= 0 {
		return s.Alloc(delta)
	}
	s.Free(-delta)
	return nil
}

// Used returns the current usage in bytes.
func (s *Storage) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Capacity returns the configured capacity.
func (s *Storage) Capacity() int64 { return s.capacity }

// Threshold returns the recoding threshold θ.
func (s *Storage) Threshold() float64 { return s.threshold }

// Utilization returns used/capacity in [0,1+].
func (s *Storage) Utilization() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity == 0 {
		return 0
	}
	return float64(s.used) / float64(s.capacity)
}

// OverThreshold reports whether usage has crossed θ×capacity, signalling
// that recoding must run.
func (s *Storage) OverThreshold() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.used) > s.threshold*float64(s.capacity)
}

// Clock is a virtual ingestion clock: time advances as data points are
// ingested at the configured signal rate, so experiments replay
// hours-scale workloads in milliseconds while preserving the paper's
// time axes (Figs 12–14).
type Clock struct {
	mu     sync.Mutex
	rate   float64 // points per second
	points int64
}

// NewClock builds a clock for the given signal rate (points/second).
func NewClock(pointsPerSec float64) *Clock {
	if pointsPerSec <= 0 {
		pointsPerSec = 1
	}
	return &Clock{rate: pointsPerSec}
}

// Advance records n ingested points.
func (c *Clock) Advance(n int) {
	c.mu.Lock()
	c.points += int64(n)
	c.mu.Unlock()
}

// Seconds returns the virtual elapsed time.
func (c *Clock) Seconds() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.points) / c.rate
}
