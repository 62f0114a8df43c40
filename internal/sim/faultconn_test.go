package sim

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// memConn is a write-capturing net.Conn stub.
type memConn struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	closed bool
}

func (c *memConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.buf.Write(p)
}

func (c *memConn) Read(p []byte) (int, error) { return 0, net.ErrClosed }

func (c *memConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *memConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

func (c *memConn) LocalAddr() net.Addr              { return nil }
func (c *memConn) RemoteAddr() net.Addr             { return nil }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// TestFaultPlanTruncatesAtOutage: a write spanning the up→down boundary
// is truncated at exactly the byte where the link drops, and the torn
// prefix reaches the peer.
func TestFaultPlanTruncatesAtOutage(t *testing.T) {
	link := NewLink(
		LinkPhase{Seconds: 1, Bandwidth: Net4G}, // 100 bytes at rate 100
		LinkPhase{Seconds: 1, Bandwidth: 0},
	)
	plan := NewFaultPlan(link, 100, 0.01)
	under := &memConn{}
	conn := plan.Wrap(under)

	payload := make([]byte, 150)
	for i := range payload {
		payload[i] = byte(i)
	}
	n, err := conn.Write(payload)
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want injected reset, got n=%d err=%v", n, err)
	}
	if n != 100 {
		t.Fatalf("truncated at %d bytes, want 100", n)
	}
	if got := under.bytes(); !bytes.Equal(got, payload[:100]) {
		t.Fatalf("peer saw %d bytes, want the exact 100-byte prefix", len(got))
	}
	// The connection is sticky-broken.
	if _, err := conn.Write([]byte{1}); err == nil {
		t.Fatal("write after fault must fail")
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("read after fault must fail")
	}
}

// TestFaultPlanDeterministic: the same traffic against the same plan
// parameters faults at the same byte, twice.
func TestFaultPlanDeterministic(t *testing.T) {
	run := func() (int, float64) {
		link := NewLink(
			LinkPhase{Seconds: 0.5, Bandwidth: Net3G},
			LinkPhase{Seconds: 0.25, Bandwidth: 0},
		)
		plan := NewFaultPlan(link, 1000, 0.05)
		conn := plan.Wrap(&memConn{})
		total := 0
		for i := 0; i < 100; i++ {
			n, err := conn.Write(make([]byte, 37))
			total += n
			if err != nil {
				break
			}
		}
		plan.mu.Lock()
		defer plan.mu.Unlock()
		return total, plan.vt
	}
	n1, vt1 := run()
	n2, vt2 := run()
	if n1 != n2 || vt1 != vt2 {
		t.Fatalf("runs diverged: (%d, %v) vs (%d, %v)", n1, vt1, n2, vt2)
	}
	if n1 != 500 { // 0.5 virtual seconds at 1000 B/s
		t.Fatalf("faulted after %d bytes, want 500", n1)
	}
}

// TestFaultPlanDialGating: dialing is refused during outages, each
// attempt advances virtual time, and enough attempts cross the outage.
func TestFaultPlanDialGating(t *testing.T) {
	link := NewLink(
		LinkPhase{Seconds: 0.1, Bandwidth: 0},
		LinkPhase{Seconds: 1, Bandwidth: Net4G},
	)
	plan := NewFaultPlan(link, 100, 0.02)
	dial := func() (net.Conn, error) { return &memConn{}, nil }
	fails := 0
	for {
		c, err := plan.Dial(dial)
		if err == nil {
			_ = c.Close()
			break
		}
		if !errors.Is(err, ErrLinkDown) {
			t.Fatalf("unexpected dial error %v", err)
		}
		if fails++; fails > 10 {
			t.Fatal("dial never succeeded")
		}
	}
	if fails != 4 { // vt hits 0.02,0.04,...: 5th attempt lands at 0.10, in the up phase
		t.Fatalf("failed dials = %d, want 4", fails)
	}
	total, failed := plan.Dials()
	if total != 5 || failed != 4 {
		t.Fatalf("dial counters = (%d, %d), want (5, 4)", total, failed)
	}
}

// TestFaultPlanScriptedStallAndReset: scripted events fire once, at their
// virtual times, with the right error shapes.
func TestFaultPlanScriptedStallAndReset(t *testing.T) {
	link := NewLink(LinkPhase{Seconds: 1, Bandwidth: Net4G}) // never down
	plan := NewFaultPlan(link, 100, 0.01)
	plan.StallAt(0.5)
	conn := plan.Wrap(&memConn{})
	n, err := conn.Write(make([]byte, 50)) // vt 0 → 0.5, exactly the stall time
	if err != nil || n != 50 {
		t.Fatalf("pre-stall write: n=%d err=%v", n, err)
	}
	n, err = conn.Write(make([]byte, 80)) // stall due before any byte moves
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want timeout-shaped stall, got %v", err)
	}
	if n != 0 {
		t.Fatalf("stall let %d bytes through, want 0", n)
	}

	plan2 := NewFaultPlan(link, 100, 0.01)
	plan2.ResetAt(0.25)
	conn2 := plan2.Wrap(&memConn{})
	n, err = conn2.Write(make([]byte, 80))
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want injected reset, got %v", err)
	}
	if n != 25 {
		t.Fatalf("reset at byte %d, want 25", n)
	}
	resets, stalls := plan2.Injected()
	if resets != 1 || stalls != 0 {
		t.Fatalf("injected = (%d, %d)", resets, stalls)
	}
}
