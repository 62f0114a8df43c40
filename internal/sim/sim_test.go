package sim

import (
	"math"
	"sync"
	"testing"
)

func TestTargetRatio(t *testing.T) {
	// Paper formula R = B/(64 × I), B in bits/s.
	// 4 M pts/s over 4G (12.5 MB/s = 100 Mbps): R = 1e8/(64*4e6) ≈ 0.39.
	got := TargetRatio(4e6, Net4G)
	if math.Abs(got-0.390625) > 1e-9 {
		t.Fatalf("4G target ratio = %v, want 0.390625", got)
	}
	// Over 3G the same signal needs ratio ≈ 0.03: below every lossless
	// codec's reach (the paper's Fig 3 story).
	got3g := TargetRatio(4e6, Net3G)
	if got3g > 0.05 {
		t.Fatalf("3G target ratio = %v, expected < 0.05", got3g)
	}
	// Slow signals need no compression.
	if got := TargetRatio(100, Net5G); got != 1 {
		t.Fatalf("tiny signal ratio = %v, want clamp to 1", got)
	}
	if got := TargetRatio(0, Net2G); got != 1 {
		t.Fatalf("zero rate ratio = %v, want 1", got)
	}
}

func TestBandwidthCarries(t *testing.T) {
	if !Net4G.Carries(10e6) {
		t.Fatal("4G should carry 10 MB/s")
	}
	if Net3G.Carries(10e6) {
		t.Fatal("3G should not carry 10 MB/s")
	}
	if Net2G.MBps() != 0.04 {
		t.Fatalf("2G MBps = %v", Net2G.MBps())
	}
	if Net4G.String() != "12.50 MB/s" {
		t.Fatalf("String = %q", Net4G.String())
	}
}

func TestStorageAllocFree(t *testing.T) {
	s := NewStorage(1000, 0.8)
	if err := s.Alloc(500); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 500 {
		t.Fatalf("used = %d", s.Used())
	}
	if s.OverThreshold() {
		t.Fatal("500/1000 should be under θ=0.8")
	}
	if err := s.Alloc(400); err != nil {
		t.Fatal(err)
	}
	if !s.OverThreshold() {
		t.Fatal("900/1000 should be over θ=0.8")
	}
	if err := s.Alloc(200); err != ErrBudgetExceeded {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	s.Free(900)
	if s.Used() != 0 {
		t.Fatalf("used = %d after free", s.Used())
	}
}

func TestStorageFreeClampsAtZero(t *testing.T) {
	s := NewStorage(100, 0.5)
	s.Free(50)
	if s.Used() != 0 {
		t.Fatalf("used went negative: %d", s.Used())
	}
}

func TestStorageResize(t *testing.T) {
	s := NewStorage(100, 0.8)
	if err := s.Resize(60); err != nil {
		t.Fatal(err)
	}
	if err := s.Resize(-20); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 40 {
		t.Fatalf("used = %d, want 40", s.Used())
	}
	if err := s.Resize(100); err != ErrBudgetExceeded {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

func TestStorageDefaultThreshold(t *testing.T) {
	s := NewStorage(100, 0)
	if s.Threshold() != 0.8 {
		t.Fatalf("default threshold = %v, want 0.8", s.Threshold())
	}
	s2 := NewStorage(100, 1.5)
	if s2.Threshold() != 0.8 {
		t.Fatalf("invalid threshold should fall back to 0.8, got %v", s2.Threshold())
	}
}

func TestStorageUtilization(t *testing.T) {
	s := NewStorage(200, 0.8)
	s.Alloc(50)
	if got := s.Utilization(); got != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
	empty := NewStorage(0, 0.8)
	if empty.Utilization() != 0 {
		t.Fatal("zero-capacity utilization should be 0")
	}
}

func TestStorageConcurrent(t *testing.T) {
	s := NewStorage(1_000_000, 0.8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if s.Alloc(10) == nil {
					s.Free(10)
				}
			}
		}()
	}
	wg.Wait()
	if s.Used() != 0 {
		t.Fatalf("leaked %d bytes under concurrency", s.Used())
	}
}

func TestClock(t *testing.T) {
	c := NewClock(1000)
	c.Advance(500)
	if got := c.Seconds(); got != 0.5 {
		t.Fatalf("seconds = %v, want 0.5", got)
	}
	c.Advance(1500)
	if got := c.Seconds(); got != 2 {
		t.Fatalf("seconds = %v, want 2", got)
	}
}

func TestClockZeroRate(t *testing.T) {
	c := NewClock(0)
	c.Advance(10)
	if c.Seconds() != 10 {
		t.Fatalf("zero-rate clock should default to 1 pt/s, got %v", c.Seconds())
	}
}
