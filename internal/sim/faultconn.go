package sim

import (
	"errors"
	"math"
	"net"
	"sort"
	"sync"
)

// Fault injection for the device→collector transport path. A FaultPlan
// wraps real connections and fails them on a deterministic schedule: the
// plan keeps a virtual clock that advances with bytes written (at a
// configured virtual byte rate) and with each dial attempt, and consults a
// Link schedule plus scripted stall/reset events to decide where writes
// break. Because every fault point is a pure function of the byte stream
// and the attempt count — never of wall time — a chaos test that replays
// the same traffic observes the same drops, truncations and stalls on
// every run.
//
// Faults are write-driven: reads pass through untouched and fail only
// because the underlying connection was broken by a write fault (or
// closed). A mid-write outage truncates the write at the byte where the
// link drops, which is exactly the torn-frame shape a real reset
// produces.

// Injected fault errors.
var (
	// ErrLinkDown is returned by Dial while the schedule says the link is
	// disconnected.
	ErrLinkDown = errors.New("sim: link down")
	// ErrInjectedReset is returned by writes that hit an outage or a
	// scripted reset.
	ErrInjectedReset = errors.New("sim: injected connection reset")
)

// stallError reports itself as a timeout, the observable shape of a
// black-holed peer hitting a write deadline.
type stallError struct{}

func (stallError) Error() string   { return "sim: injected stall (write timeout)" }
func (stallError) Timeout() bool   { return true }
func (stallError) Temporary() bool { return true }

// ErrInjectedStall is the timeout-shaped error scripted stalls inject.
var ErrInjectedStall net.Error = stallError{}

// FaultPlan schedules faults for one device's connections.
type FaultPlan struct {
	link     *Link
	rate     float64 // virtual bytes per virtual second
	dialCost float64 // virtual seconds charged per dial attempt

	mu     sync.Mutex
	vt     float64   // virtual time; guarded by mu
	stalls []float64 // pending scripted stall times (sorted); guarded by mu
	resets []float64 // pending scripted reset times (sorted); guarded by mu

	dials, dialFails    int // guarded by mu
	resetCount, stallCt int // guarded by mu
}

// NewFaultPlan builds a plan over a link schedule. bytesPerVirtualSec
// converts written bytes into virtual time (it is the metering rate of
// the virtual clock, not a throughput cap); dialCostSec is the virtual
// time one dial attempt consumes, which is what lets virtual time cross
// an outage while a sender is redialling.
func NewFaultPlan(link *Link, bytesPerVirtualSec, dialCostSec float64) *FaultPlan {
	if bytesPerVirtualSec <= 0 {
		bytesPerVirtualSec = 1
	}
	if dialCostSec <= 0 {
		dialCostSec = 0.01
	}
	return &FaultPlan{link: link, rate: bytesPerVirtualSec, dialCost: dialCostSec}
}

// StallAt schedules write stalls at the given virtual times. Each fires
// once, on the first write at or past its time.
func (p *FaultPlan) StallAt(times ...float64) {
	p.mu.Lock()
	p.stalls = append(p.stalls, times...)
	sort.Float64s(p.stalls)
	p.mu.Unlock()
}

// ResetAt schedules connection resets at the given virtual times, on top
// of the outages the link schedule itself imposes.
func (p *FaultPlan) ResetAt(times ...float64) {
	p.mu.Lock()
	p.resets = append(p.resets, times...)
	sort.Float64s(p.resets)
	p.mu.Unlock()
}

// Dials returns total and failed dial attempts.
func (p *FaultPlan) Dials() (total, failed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials, p.dialFails
}

// Injected returns the number of injected resets and stalls.
func (p *FaultPlan) Injected() (resets, stalls int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resetCount, p.stallCt
}

// Dial charges one dial attempt, fails it when the link is down, and
// otherwise runs dial and wraps the resulting connection. It matches the
// transport dialer signature modulo the closed-over address.
func (p *FaultPlan) Dial(dial func() (net.Conn, error)) (net.Conn, error) {
	p.mu.Lock()
	p.vt += p.dialCost
	p.dials++
	up := p.link.Connected(p.vt)
	if !up {
		p.dialFails++
	}
	p.mu.Unlock()
	if !up {
		return nil, ErrLinkDown
	}
	c, err := dial()
	if err != nil {
		return nil, err
	}
	return p.Wrap(c), nil
}

// Wrap returns conn with the plan's write faults injected.
func (p *FaultPlan) Wrap(conn net.Conn) net.Conn {
	return &faultyConn{Conn: conn, plan: p}
}

// faultyConn injects the plan's faults into Write.
type faultyConn struct {
	net.Conn
	plan *FaultPlan

	mu     sync.Mutex
	broken error // sticky fault; guarded by mu
}

// fail marks the connection broken and closes the underlying conn so the
// peer (and any pending read) observes the failure too.
func (c *faultyConn) fail(err error) error {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	c.mu.Unlock()
	_ = c.Conn.Close()
	return err
}

func (c *faultyConn) brokenErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// nextEvent pops the earliest pending scripted event at or before t.
// Caller holds plan.mu.
func popDue(times *[]float64, t float64) bool {
	if len(*times) > 0 && (*times)[0] <= t {
		*times = (*times)[1:]
		return true
	}
	return false
}

func (c *faultyConn) Write(b []byte) (int, error) {
	if err := c.brokenErr(); err != nil {
		return 0, err
	}
	p := c.plan
	written := 0
	for written < len(b) {
		p.mu.Lock()
		vt := p.vt
		if popDue(&p.stalls, vt) {
			p.stallCt++
			p.mu.Unlock()
			return written, c.fail(ErrInjectedStall)
		}
		if popDue(&p.resets, vt) {
			p.resetCount++
			p.mu.Unlock()
			return written, c.fail(ErrInjectedReset)
		}
		up := p.link.UpFor(vt)
		if up <= 0 {
			p.resetCount++
			p.mu.Unlock()
			return written, c.fail(ErrInjectedReset)
		}
		// Horizon: bytes until the link drops or the next scripted event.
		horizon := up
		if len(p.stalls) > 0 && p.stalls[0]-vt < horizon {
			horizon = p.stalls[0] - vt
		}
		if len(p.resets) > 0 && p.resets[0]-vt < horizon {
			horizon = p.resets[0] - vt
		}
		allowed := len(b) - written
		whole := true
		if !(horizon > float64(allowed)/p.rate) {
			allowed = int(horizon * p.rate)
			whole = false
		}
		p.vt += float64(allowed) / p.rate
		if !whole {
			// Land exactly on the boundary so the fault triggers on the
			// next pass regardless of float rounding in the division. A
			// horizon smaller than vt's ulp would leave vt unchanged and
			// spin this loop forever, so force at least one ulp of
			// progress.
			p.vt = vt + horizon
			if p.vt <= vt {
				p.vt = math.Nextafter(vt, math.Inf(1))
			}
		}
		p.mu.Unlock()
		if allowed > 0 {
			n, err := c.Conn.Write(b[written : written+allowed])
			written += n
			if err != nil {
				return written, c.fail(err)
			}
		}
		if !whole && allowed == 0 && written < len(b) {
			// Zero-byte horizon: the fault is immediate; loop once more to
			// pop the event with vt now at the boundary.
			continue
		}
	}
	return written, nil
}

func (c *faultyConn) Read(b []byte) (int, error) {
	if err := c.brokenErr(); err != nil {
		return 0, err
	}
	return c.Conn.Read(b)
}

func (c *faultyConn) Close() error {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = net.ErrClosed
	}
	c.mu.Unlock()
	return c.Conn.Close()
}
