package transport

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// ResilientUplink is the fault-tolerant device-side sender: Send spools
// the frame in a bounded on-device queue (backed by store.Spool) and
// returns without touching the network; a single pump goroutine owns every
// write, sending spooled frames in ID order with a deadline on each socket
// write, and the collector's cumulative ACKs release them. On any
// connection error the pump backs off exponentially (deterministic,
// seeded jitter), redials, and sends the first unacknowledged frame again:
// the ACK that answers it is the collector's watermark, which may release
// more than that frame, and the session goes on from there. The wire is
// therefore at-least-once — at most one redelivered frame per session —
// and the collector's per-device watermark turns it into exactly-once at
// the sink.
//
// A session sends the spool head alone and waits for the ACK the
// collector owes a lone frame; after that the pump streams spooled frames
// without waiting, flushing when it has caught up with the spool or the
// write buffer is full. Throughput pays one round trip per session, not
// per frame. A per-session reader goroutine reads the collector's
// coalesced cumulative ACKs and hands the pump the highest watermark; the
// pump alone applies ACKs and writes the delivery trace. With
// ResilientConfig.AckEvery 1 every frame goes out like a session's first:
// flushed alone, then the pump waits for the ACK that covers it. That
// lockstep makes the whole network interaction a deterministic function
// of the spooled traffic and the fault schedule, so two runs with the
// same seed produce the same retry/ACK trace.
type ResilientUplink struct {
	cfg   ResilientConfig
	spool *store.Spool
	boff  backoff
	work  chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
	// om caches the obs handles; nil when ResilientConfig.Obs is unset.
	om *uplinkMetrics
	// ackVisit closes the wire.ack span stage for each entry an ACK
	// releases (nil when uninstrumented; built once to keep the ACK path
	// allocation-free).
	ackVisit func(*store.Entry)

	// The pump's counters are atomics so the per-frame path never takes mu
	// for bookkeeping; Stats assembles them into an UplinkStats.
	framesSent, sendFailures, ackFailures, dials, dialFailures atomic.Int64

	mu     sync.Mutex
	conn   net.Conn // current connection, nil between dials; guarded by mu
	closed bool     // guarded by mu
	// drainWait, when non-nil, is closed as soon as the spool is
	// observed empty after an ACK advance; guarded by mu. WaitDrain
	// blocks on it instead of polling.
	drainWait chan struct{}
	// br and w frame the current conn and out is what w writes to; replaced
	// on redial. Only the pump touches them, but they are replaced under mu
	// alongside conn.
	br  *bufio.Reader
	w   *Writer
	out *deadlineWriter
	// burst lists the session's frames that are in w's buffer and not yet
	// known to be on the socket, oldest first. Pump only.
	burst []frameRef
	// The session's hand-offs between the pump and its ackLoop. sentTo is
	// one past the highest frame ID on the socket, and sent wakes a parked
	// ackLoop when it grows; readTo is the highest watermark ackLoop has
	// read, and acked wakes the pump to apply it. Both are reset by the
	// pump before each session's ackLoop starts.
	sentTo, readTo atomic.Uint64
	sent, acked    chan struct{}
}

// frameRef is what the pump keeps of a buffered frame for its send record.
type frameRef struct{ id, trace uint64 }

// deadlineWriter is the connection as the frame Writer sees it: every
// socket write arms its own deadline, so no stream runs into a stale one,
// and is counted, so the pump can tell a Send that spilled the buffer.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
	writes  int
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	_ = d.conn.SetWriteDeadline(time.Now().Add(d.timeout))
	d.writes++
	return d.conn.Write(p)
}

// ResilientConfig parameterizes DialResilient. The zero value of every
// field except Addr is usable.
type ResilientConfig struct {
	// Addr is the collector address.
	Addr string
	// DeviceID identifies this device to the collector's dedup watermark.
	// Devices sharing a collector must use distinct IDs.
	DeviceID uint64
	// Protocol is ignored: there is one session protocol.
	//
	// Deprecated: lockstep, which Protocol 1 selected, is AckEvery 1.
	Protocol int
	// AckEvery is the ACK interval requested in the hello: 0 asks for the
	// collector's default (DefaultAckEvery), and 1 is lockstep, where the
	// pump flushes every frame alone and waits for the ACK that covers it
	// before sending the next (a deterministic delivery trace).
	AckEvery int
	// DialTimeout bounds each dial attempt (default DefaultDialTimeout).
	DialTimeout time.Duration
	// WriteTimeout bounds each socket write (default 10s).
	WriteTimeout time.Duration
	// AckTimeout bounds the wait for each cumulative ACK (default 10s).
	AckTimeout time.Duration
	// BackoffBase and BackoffMax bound the exponential redial backoff
	// (defaults 50ms and 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the backoff jitter; the same seed yields the same
	// delay sequence.
	Seed int64
	// SpoolSegments and SpoolBytes bound the spool (see store.NewSpool).
	SpoolSegments int
	SpoolBytes    int64
	// HighWater is the spool pressure mark in (0,1) (default 0.75).
	HighWater float64
	// OnPressure fires when spool utilization crosses HighWater in either
	// direction. Wire it to OnlineEngine.Retarget for graceful
	// degradation: retarget to a fraction of the link while the backlog
	// is deep, and to the whole link once the spool drains.
	OnPressure func(over bool)
	// Dialer overrides the transport (fault injection, tests). Default
	// is net.DialTimeout over TCP.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// OnEvent observes the delivery trace (dials, sends, ACKs, backoff).
	// Called from the pump goroutine; must not block.
	OnEvent func(Event)
	// Obs mirrors the delivery trace into the observability substrate:
	// per-kind counters, a spool-depth gauge/histogram, a frame→ACK RTT
	// histogram, and one trace-ring event per delivery-trace Event. Nil
	// disables at the cost of one branch per event.
	Obs *obs.Observer
}

// Event is one entry of the uplink's delivery trace.
type Event struct {
	// Kind is one of "dial", "dial-fail", "send", "send-fail", "ack",
	// "ack-fail", "backoff".
	Kind string
	// ID is the frame ID (send, send-fail; for ack-fail the oldest frame
	// still waiting for its ACK), ACK watermark (ack), or dial attempt
	// ordinal (dial/dial-fail).
	ID uint64
	// Wait is the backoff delay (backoff events only).
	Wait time.Duration
	// Err carries the failure (fail events only).
	Err string
}

// UplinkStats summarizes delivery progress.
type UplinkStats struct {
	// FramesSent counts frames whose last byte a successful socket write
	// carried, retransmissions included. A session buffers frames
	// and writes them in bursts, so a frame still in the buffer, or in a
	// write that failed, is not counted (some of a failed write's frames
	// may have reached the collector all the same).
	FramesSent int
	// Acked is the collector's cumulative watermark.
	Acked uint64
	// Dials and DialFailures count connection attempts.
	Dials, DialFailures int
	// SendFailures counts socket writes that broke the connection.
	SendFailures int
	// AckFailures counts ACK reads that broke the connection (timeouts
	// and torn reads on the collector→device half), kept separate from
	// SendFailures so the two halves stay diagnosable.
	AckFailures int
	// Pending and Dropped report the spool state.
	Pending, Dropped int
}

func (c ResilientConfig) withDefaults() ResilientConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = 5 * time.Second
		if c.BackoffMax < c.BackoffBase {
			c.BackoffMax = c.BackoffBase
		}
	}
	if c.AckEvery < 0 {
		c.AckEvery = 0
	}
	if c.Dialer == nil {
		c.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return c
}

// DefaultDialTimeout bounds each dial attempt: a black-holed collector
// address must fail the device quickly, not hang it forever.
const DefaultDialTimeout = 10 * time.Second

// ErrUplinkClosed is returned by Send after Close, and by a WaitDrain
// that Close cut short.
var ErrUplinkClosed = errors.New("transport: uplink closed")

// DialResilient starts a resilient uplink toward cfg.Addr. It returns
// immediately: the first dial happens on the pump goroutine, and an
// unreachable collector just means frames accumulate in the spool until
// the bound sheds them.
func DialResilient(cfg ResilientConfig) (*ResilientUplink, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" {
		return nil, errors.New("transport: resilient uplink needs an address")
	}
	u := &ResilientUplink{
		cfg:   cfg,
		boff:  newBackoff(cfg.BackoffBase, cfg.BackoffMax, cfg.Seed),
		work:  make(chan struct{}, 1),
		sent:  make(chan struct{}, 1),
		acked: make(chan struct{}, 1),
		done:  make(chan struct{}),
		om:    newUplinkMetrics(cfg.Obs, cfg.DeviceID),
	}
	if u.om != nil {
		u.ackVisit = func(e *store.Entry) { u.om.spanAck(e.Trace, e.ID) }
	}
	u.spool = store.NewSpool(cfg.SpoolSegments, cfg.SpoolBytes, cfg.HighWater, cfg.OnPressure)
	u.wg.Add(1)
	go u.run()
	return u, nil
}

// Send spools one frame for delivery. It never blocks on the network;
// when the spool bound is reached it fails with store.ErrSpoolFull and
// the caller sheds the segment.
func (u *ResilientUplink) Send(f Frame) error {
	u.mu.Lock()
	closed := u.closed
	u.mu.Unlock()
	if closed {
		return ErrUplinkClosed
	}
	// Append copies the entry into the spool's ring, so the literal stays on
	// the stack: spooling a frame allocates nothing (TestAllocsUplinkSend).
	err := u.spool.Append(&store.Entry{ID: f.ID, Label: f.Label, Trace: f.Trace, Enc: f.Enc})
	if err != nil {
		u.om.reject()
		return err
	}
	if u.om != nil {
		depth := u.spool.Len()
		u.om.spoolDepth(depth)
		u.om.spanEnqueue(f.Trace, f.ID, depth)
	}
	select {
	case u.work <- struct{}{}:
	default:
	}
	return nil
}

// Pending returns the number of spooled, unacknowledged frames.
func (u *ResilientUplink) Pending() int { return u.spool.Len() }

// Acked returns the collector's cumulative watermark: every frame ID
// below it is confirmed delivered.
func (u *ResilientUplink) Acked() uint64 { return u.spool.Acked() }

// Stats returns a snapshot of delivery progress.
func (u *ResilientUplink) Stats() UplinkStats {
	return UplinkStats{
		FramesSent:   int(u.framesSent.Load()),
		Acked:        u.spool.Acked(),
		Dials:        int(u.dials.Load()),
		DialFailures: int(u.dialFailures.Load()),
		SendFailures: int(u.sendFailures.Load()),
		AckFailures:  int(u.ackFailures.Load()),
		Pending:      u.spool.Len(),
		Dropped:      u.spool.Dropped(),
	}
}

// WaitDrain blocks until every spooled frame is acknowledged, the uplink
// is closed (ErrUplinkClosed, with frames still pending) or the timeout
// expires. It parks on a drain-notification channel signalled from the
// ACK path (no polling).
func (u *ResilientUplink) WaitDrain(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		u.mu.Lock()
		if u.spool.Len() == 0 {
			u.mu.Unlock()
			return nil
		}
		if u.drainWait == nil {
			u.drainWait = make(chan struct{})
		}
		ch := u.drainWait
		u.mu.Unlock()
		select {
		case <-ch:
			// Woken by an ACK advance; re-check — a concurrent Send may
			// have refilled the spool.
		case <-u.done:
			// Closed: nothing will acknowledge what is left.
			if u.spool.Len() == 0 {
				return nil
			}
			return ErrUplinkClosed
		case <-t.C:
			return errors.New("transport: drain timeout")
		}
	}
}

// notifyDrain wakes WaitDrain callers when an ACK advance empties the
// spool. Spurious wakeups are fine (WaitDrain re-checks); missed empties
// are not, so it runs after every AckBelow.
func (u *ResilientUplink) notifyDrain() {
	if u.spool.Len() > 0 {
		return
	}
	u.mu.Lock()
	if u.drainWait != nil {
		close(u.drainWait)
		u.drainWait = nil
	}
	u.mu.Unlock()
}

// Close stops the pump and closes the connection. Frames still spooled
// are abandoned; call WaitDrain first for a graceful shutdown.
func (u *ResilientUplink) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	conn := u.conn
	u.mu.Unlock()
	close(u.done)
	if conn != nil {
		_ = conn.Close()
	}
	u.wg.Wait()
	return nil
}

// event writes one entry of the delivery trace. Only the pump calls it,
// so OnEvent is never entered concurrently.
func (u *ResilientUplink) event(e Event) { u.tracedEvent(e, 0) }

// tracedEvent is event for a frame's send: trace is the frame's span
// identity, and a traced frame's send event is its wire.send stage.
func (u *ResilientUplink) tracedEvent(e Event, trace uint64) {
	if u.cfg.OnEvent != nil {
		u.cfg.OnEvent(e)
	}
	u.om.event(e, trace)
}

// sleep waits d or until Close.
func (u *ResilientUplink) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-u.done:
	}
}

// run is the pump: it owns every network write, applies every ACK and
// writes the whole delivery trace (a per-session ackLoop goroutine only
// reads ACKs).
func (u *ResilientUplink) run() {
	defer u.wg.Done()
	defer u.dropConn()
	for {
		head, ok := u.spool.Head()
		if !ok {
			select {
			case <-u.work:
				continue
			case <-u.done:
				return
			}
		}
		if u.closing() {
			return
		}
		// A failed connect has backed off already, and a session ends with
		// its connection dropped; either way the loop top sees Close.
		if u.connect() && u.session(head) != nil {
			wait := u.boff.next()
			u.event(Event{Kind: "backoff", Wait: wait})
			u.sleep(wait)
		}
	}
}

func (u *ResilientUplink) dropConn() {
	u.mu.Lock()
	conn := u.conn
	u.conn, u.br, u.w, u.out = nil, nil, nil, nil
	u.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// connect dials, sends the session hello, and installs the connection.
// On failure it records the event and backs off; it reports whether a
// connection is installed.
func (u *ResilientUplink) connect() bool {
	attempt := uint64(u.dials.Add(1))
	conn, err := u.cfg.Dialer(u.cfg.Addr, u.cfg.DialTimeout)
	if err == nil {
		_ = conn.SetWriteDeadline(time.Now().Add(u.cfg.WriteTimeout))
		if err = writeHello(conn, u.cfg.DeviceID, uint64(u.cfg.AckEvery)); err != nil {
			_ = conn.Close()
		}
	}
	if err != nil {
		u.dialFailures.Add(1)
		u.event(Event{Kind: "dial-fail", ID: attempt, Err: err.Error()})
		wait := u.boff.next()
		u.event(Event{Kind: "backoff", Wait: wait})
		u.sleep(wait)
		return false
	}
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		_ = conn.Close()
		return false
	}
	u.conn = conn
	u.br = bufio.NewReader(conn)
	u.out = &deadlineWriter{conn: conn, timeout: u.cfg.WriteTimeout}
	u.w = NewWriter(u.out)
	u.mu.Unlock()
	u.event(Event{Kind: "dial", ID: attempt})
	return true
}

// session runs one session over the installed connection; head is the
// spool's oldest entry. The first frame earns the watermark: head goes out
// alone, and the ACK the collector owes a lone frame, duplicate or not,
// carries the first ID it has not delivered, so applying it releases
// whatever the previous session delivered without seeing acknowledged — at
// most one frame per session crosses the wire twice. After that the pump
// streams past a send cursor without waiting for ACKs: frames collect in
// the Writer's buffer, which spills to the socket when it fills and is
// flushed whenever the cursor catches the spool, always before the pump
// parks, so nothing waits on a timer. With AckEvery 1 every frame goes out
// like the first. The pump applies what ackLoop reads between frames and
// while it waits. Either side's error tears the session down, and the pump
// backs off and redials; it returns nil only when the uplink is closing.
func (u *ResilientUplink) session(head store.Entry) error {
	u.mu.Lock()
	conn, br := u.conn, u.br
	u.mu.Unlock()
	u.burst = u.burst[:0]
	u.sentTo.Store(0)
	u.readTo.Store(0)
	ackErr := make(chan error, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		u.ackLoop(conn, br, stop, ackErr)
	}()
	// end stops ackLoop, whose error from then on (the dropped connection's,
	// typically) is neither counted nor traced, and applies the last
	// watermark it read.
	end := func(err error) error {
		close(stop)
		u.dropConn() // unblocks the reader's readAck
		wg.Wait()
		u.applyAck()
		return err
	}
	// A failure is counted and traced unless Close broke the connection.
	sendFail := func(err error) error {
		if u.closing() {
			return end(nil)
		}
		u.sendFailures.Add(1)
		u.event(Event{Kind: "send-fail", ID: u.burst[0].id, Err: err.Error()})
		return end(err)
	}
	ackFail := func(err error) error {
		if u.closing() {
			return end(nil)
		}
		u.applyAck()
		oldest, _ := u.spool.Head()
		u.ackFailures.Add(1)
		u.event(Event{Kind: "ack-fail", ID: oldest.ID, Err: err.Error()})
		return end(err)
	}

	e, lone := head, true
	for {
		if err := u.sendBuffered(e); err != nil {
			return sendFail(err)
		}
		if lone {
			rtt := u.om.rttStart()
			if err := u.flushBurst(); err != nil {
				return sendFail(err)
			}
			for u.spool.Acked() <= e.ID {
				select {
				case <-u.acked:
					u.applyAck()
				case err := <-ackErr:
					return ackFail(err)
				case <-u.done:
					return end(nil)
				}
			}
			u.om.rttDone(rtt)
			lone = u.cfg.AckEvery == 1
		}
		for cursor := e.ID; ; {
			var ok bool
			if e, ok = u.spool.HeadAfter(cursor); ok {
				break
			}
			// Everything spooled is buffered, in flight or acknowledged: put
			// the buffer on the wire, then park until new work, an ACK, the
			// reader's error, or Close.
			if err := u.flushBurst(); err != nil {
				return sendFail(err)
			}
			select {
			case <-u.work:
			case <-u.acked:
				u.applyAck()
			case err := <-ackErr:
				return ackFail(err)
			case <-u.done:
				return end(nil)
			}
		}
		select {
		case <-u.acked:
			u.applyAck()
		case err := <-ackErr:
			return ackFail(err)
		case <-u.done:
			return end(nil)
		default:
		}
	}
}

// sendBuffered frames e into the Writer's buffer. If the buffer spilled on
// the way, every frame buffered before e is on the socket and is recorded as
// sent; e itself, possibly cut in two by the spill, waits for the next write.
func (u *ResilientUplink) sendBuffered(e store.Entry) error {
	u.burst = append(u.burst, frameRef{e.ID, e.Trace})
	writes := u.out.writes
	err := u.w.Send(Frame{ID: e.ID, Label: e.Label, Trace: e.Trace, Enc: e.Enc})
	if err == nil && u.out.writes != writes {
		u.sentBurst(len(u.burst) - 1)
	}
	return err
}

// flushBurst puts the buffered frames, if any, on the socket and records
// them as sent.
func (u *ResilientUplink) flushBurst() error {
	if len(u.burst) == 0 {
		return nil
	}
	err := u.w.Flush()
	if err == nil {
		u.sentBurst(len(u.burst))
	}
	return err
}

// sentBurst records the n oldest buffered frames as sent, one send event
// each in ID order, now that a socket write has carried them whole.
func (u *ResilientUplink) sentBurst(n int) {
	if n == 0 {
		return
	}
	u.framesSent.Add(int64(n))
	for _, f := range u.burst[:n] {
		u.tracedEvent(Event{Kind: "send", ID: f.id}, f.trace)
	}
	u.sentTo.Store(u.burst[n-1].id + 1)
	u.burst = u.burst[:copy(u.burst, u.burst[n:])]
	select {
	case u.sent <- struct{}{}:
	default:
	}
}

// ackLoop is the session's read half, and reading ACKs is all it does. It
// reads while the last watermark it read leaves a frame on the socket
// uncovered and parks otherwise (an idle session expects no ACK, so no read
// deadline may fire). Each watermark goes to readTo, and acked wakes the
// pump to apply it; the send never blocks, because a wake-up still pending
// covers the newer, cumulative watermark too. Its one error goes to ackErr
// and ends the loop; the pump decides whether it counts.
func (u *ResilientUplink) ackLoop(conn net.Conn, br *bufio.Reader, stop <-chan struct{}, ackErr chan<- error) {
	var read uint64
	for {
		if read >= u.sentTo.Load() {
			select {
			case <-u.sent:
				continue // frames in flight again; resume reading
			case <-stop:
				return
			}
		}
		_ = conn.SetReadDeadline(time.Now().Add(u.cfg.AckTimeout))
		next, err := readAck(br)
		if err != nil {
			ackErr <- err
			return
		}
		read = next
		u.readTo.Store(next)
		select {
		case u.acked <- struct{}{}:
		default:
		}
	}
}

// applyAck applies the last watermark ackLoop read, if it is news; the
// pump alone applies ACKs and traces them. It releases every spooled entry
// below the watermark — closing each traced frame's wire.ack span stage
// via ackVisit — mirrors the watermark and depth onto the obs surfaces,
// wakes drain waiters, and resets the backoff: the session made progress,
// so its next failure is a fresh incident.
func (u *ResilientUplink) applyAck() {
	next := u.readTo.Load()
	if next <= u.spool.Acked() {
		return
	}
	u.spool.AckBelowVisit(next, u.ackVisit)
	u.notifyDrain()
	if u.om != nil {
		u.om.ackWatermark(u.spool.Acked())
		u.om.spoolDepth(u.spool.Len())
	}
	u.event(Event{Kind: "ack", ID: next})
	u.boff.reset()
}

// closing reports whether Close has been called.
func (u *ResilientUplink) closing() bool {
	select {
	case <-u.done:
		return true
	default:
		return false
	}
}

// backoff computes exponential redial delays with deterministic jitter.
// The jitter stream is a splitmix64 generator over the configured seed,
// not the process-global math/rand, so the same seed reproduces the same
// delay sequence (TestBackoffDeterministic), which is what makes
// chaos-test retry traces comparable across runs.
type backoff struct {
	base, max time.Duration
	attempt   int
	state     uint64
}

func newBackoff(base, max time.Duration, seed int64) backoff {
	return backoff{base: base, max: max, state: uint64(seed)*0x9e3779b97f4a7c15 + 1}
}

// next returns the delay for the current attempt: cap(base·2^attempt)
// jittered into [d/2, d].
func (b *backoff) next() time.Duration {
	d := b.base
	for i := 0; i < b.attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	b.attempt++
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(splitmix64(&b.state)%uint64(half+1))
}

func (b *backoff) reset() { b.attempt = 0 }

// splitmix64 is the standard SplitMix64 step (Steele et al.), enough for
// jitter and fully reproducible from the seed.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
