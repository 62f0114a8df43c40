package transport

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/sim"
)

// The session's two rules, each with the test that fails without it: the
// first frame of a session goes out alone and the ACK it earns is where
// the session resumes, and after it the pump writes per burst.

// scriptedCollector is the collector's end of the wire played by the test:
// it accepts sessions one at a time and reads frames and writes ACKs only
// when told to, so a test decides what was delivered and what was
// acknowledged when a connection dies.
type scriptedCollector struct {
	ln net.Listener
}

type scriptedSession struct {
	conn net.Conn
	br   *bufio.Reader
	r    *Reader
}

func newScriptedCollector(t *testing.T) *scriptedCollector {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	return &scriptedCollector{ln: ln}
}

// accept takes the next connection and reads its hello.
func (c *scriptedCollector) accept(t *testing.T) *scriptedSession {
	t.Helper()
	_ = c.ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	conn, err := c.ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if h, err := readHello(br); err != nil {
		t.Fatalf("hello = %+v, %v", h, err)
	}
	return &scriptedSession{conn: conn, br: br, r: NewReader(br)}
}

func (s *scriptedSession) recv(t *testing.T) Frame {
	t.Helper()
	_ = s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := s.r.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return f
}

// quiet fails the test if a byte arrives within d.
func (s *scriptedSession) quiet(t *testing.T, d time.Duration) {
	t.Helper()
	_ = s.conn.SetReadDeadline(time.Now().Add(d))
	if b, err := s.br.Peek(1); err == nil {
		t.Fatalf("byte %#x on the wire before the session's first ACK", b[0])
	}
}

func (s *scriptedSession) ack(t *testing.T, next uint64) {
	t.Helper()
	if err := writeAck(s.conn, next); err != nil {
		t.Fatalf("ack: %v", err)
	}
}

// heldDialer dials for real once release is closed, so a test can spool a
// backlog before the first session exists.
func heldDialer(release <-chan struct{}, wrap func(net.Conn) net.Conn) func(string, time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		<-release
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil || wrap == nil {
			return conn, err
		}
		return wrap(conn), nil
	}
}

// TestResumeFromFirstAck plays a session that dies with frames delivered
// and not acknowledged. The next session sends the spool head alone; the
// ACK that answers it carries the collector's watermark, releases the whole
// delivered prefix, and the second frame on the wire is the first one the
// collector does not have. One frame crosses twice when the head had been
// delivered, none when it had not.
func TestResumeFromFirstAck(t *testing.T) {
	const frames = 12
	for _, tc := range []struct {
		name      string
		delivered uint64 // highest ID session one reads before it dies
		dupes     int
	}{
		{"head delivered", 9, 1},
		{"head not delivered", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := newScriptedCollector(t)
			release := make(chan struct{})
			up, err := DialResilient(ResilientConfig{
				Addr: col.ln.Addr().String(), DeviceID: 3,
				BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
				Dialer: heldDialer(release, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer up.Close()
			for i := uint64(0); i < frames; i++ {
				if err := up.Send(smallFrame(i)); err != nil {
					t.Fatal(err)
				}
			}
			close(release)

			// Session one: frame 0 alone, its ACK, then the stream; it dies
			// having read through tc.delivered and acknowledged frame 0 only.
			one := col.accept(t)
			if f := one.recv(t); f.ID != 0 {
				t.Fatalf("session one opened with frame %d, want 0", f.ID)
			}
			one.quiet(t, 30*time.Millisecond)
			one.ack(t, 1)
			for id := uint64(1); id <= tc.delivered; id++ {
				if f := one.recv(t); f.ID != id {
					t.Fatalf("session one: frame %d, want %d", f.ID, id)
				}
			}
			_ = one.conn.Close()

			// Session two: the head (frame 1) alone, whatever became of it.
			two := col.accept(t)
			if f := two.recv(t); f.ID != 1 {
				t.Fatalf("session two opened with frame %d, want the spool head 1", f.ID)
			}
			two.quiet(t, 30*time.Millisecond)
			dupes := 0
			if tc.delivered >= 1 {
				dupes++
			}
			watermark := max(tc.delivered, 1) + 1
			two.ack(t, watermark)
			for id := watermark; id < frames; id++ {
				f := two.recv(t)
				if f.ID <= tc.delivered {
					dupes++
				}
				if f.ID != id {
					t.Fatalf("session two: frame %d, want %d (the first undelivered ID after the ACK is %d)", f.ID, id, watermark)
				}
			}
			two.ack(t, frames)
			if err := up.WaitDrain(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if dupes != tc.dupes {
				t.Fatalf("%d frames crossed twice, want %d", dupes, tc.dupes)
			}
			if got := up.Stats().Acked; got != frames {
				t.Fatalf("uplink watermark = %d, want %d", got, frames)
			}
		})
	}
}

// TestLoneFrameNeverAckedFailsByAckTimeout: a collector that does not
// answer a session's first frame costs the device one AckTimeout and an
// ack-fail, not a hang, and nothing else is sent meanwhile.
func TestLoneFrameNeverAckedFailsByAckTimeout(t *testing.T) {
	col := newScriptedCollector(t)
	failed := make(chan Event, 1)
	up, err := DialResilient(ResilientConfig{
		Addr: col.ln.Addr().String(), DeviceID: 4,
		AckTimeout:  50 * time.Millisecond,
		BackoffBase: time.Second, BackoffMax: time.Second, // one session is all the test looks at
		OnEvent: func(e Event) {
			if e.Kind == "ack-fail" || e.Kind == "send-fail" {
				select {
				case failed <- e:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	for i := uint64(0); i < 4; i++ {
		if err := up.Send(smallFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := col.accept(t)
	if f := s.recv(t); f.ID != 0 {
		t.Fatalf("session opened with frame %d, want 0", f.ID)
	}
	s.quiet(t, 30*time.Millisecond)
	select {
	case e := <-failed:
		if e.Kind != "ack-fail" {
			t.Fatalf("session failed with %s (%s), want ack-fail", e.Kind, e.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ack-fail: the session hangs on the ACK it never gets")
	}
	if st := up.Stats(); st.AckFailures != 1 || st.FramesSent != 1 {
		t.Fatalf("stats = %+v, want one ACK failure and one frame sent", st)
	}
}

// TestCloseMidSessionTracesNoAckFail: Close breaks a session whose reader
// is blocked on an ACK. The read error that follows is Close's doing, not
// a failure of the link, so it is neither counted nor traced.
func TestCloseMidSessionTracesNoAckFail(t *testing.T) {
	col := newScriptedCollector(t)
	var mu sync.Mutex
	var fails []Event
	up, err := DialResilient(ResilientConfig{
		Addr: col.ln.Addr().String(), DeviceID: 10,
		OnEvent: func(e Event) {
			if e.Kind == "ack-fail" || e.Kind == "send-fail" {
				mu.Lock()
				fails = append(fails, e)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := up.Send(smallFrame(0)); err != nil {
		t.Fatal(err)
	}
	s := col.accept(t)
	if f := s.recv(t); f.ID != 0 {
		t.Fatalf("session opened with frame %d, want 0", f.ID)
	}
	time.Sleep(20 * time.Millisecond) // the reader is blocked on frame 0's ACK, which never comes
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if st := up.Stats(); st.AckFailures != 0 || st.SendFailures != 0 || len(fails) != 0 {
		t.Fatalf("stats = %+v, failure events %+v: want none for a Close", st, fails)
	}
}

// TestResumeSeededOutages spools a backlog faster than the collector
// drains it and runs it through a seeded fault plan with more than twenty
// outages. Every ID reaches the sink exactly once, and no session redelivers
// more than its first frame, so the collector's duplicate count is bounded
// by the sessions dialled. (Replaying the un-ACKed spool on every redial,
// the same run reads ten times that and more; the number is in CHANGES.md.)
func TestResumeSeededOutages(t *testing.T) {
	const total = 2000
	pool, _ := sampleFrames(t, 16)
	var mu sync.Mutex
	counts := make([]int, total)
	col := NewCollector(compress.DefaultRegistry(4), func(f Frame, _ []float64) {
		mu.Lock()
		counts[f.ID]++
		mu.Unlock()
	})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// 0.6 virtual seconds up, 0.25 down; at 40 kB a virtual second an up
	// phase carries some eighty of these frames. A failed dial costs half an
	// outage, so an outage is one or two failed dials and then the resume.
	link := sim.NewLink(
		sim.LinkPhase{Seconds: 0.6, Bandwidth: sim.Net4G},
		sim.LinkPhase{Seconds: 0.25, Bandwidth: 0},
	)
	plan := sim.NewFaultPlan(link, 40_000, 0.125)
	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 21, Seed: 7,
		SpoolSegments: total,
		BackoffBase:   200 * time.Microsecond, BackoffMax: 2 * time.Millisecond,
		Dialer: func(a string, timeout time.Duration) (net.Conn, error) {
			return plan.Dial(func() (net.Conn, error) { return net.DialTimeout("tcp", a, timeout) })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	for id := uint64(0); id < total; id++ {
		f := pool[id%uint64(len(pool))]
		f.ID = id
		if err := up.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := up.Stats()
	_ = up.Close()

	mu.Lock()
	defer mu.Unlock()
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("frame %d reached the sink %d times", id, n)
		}
	}
	resets, _ := plan.Injected()
	if resets < 20 {
		t.Fatalf("%d outages hit the stream, want >= 20: the plan does not bite", resets)
	}
	sessions := st.Dials - st.DialFailures
	t.Logf("%d outages, %d sessions, %d duplicates, %d frames sent for %d", resets, sessions, col.Duplicates(), st.FramesSent, total)
	if d := col.Duplicates(); d > sessions {
		t.Fatalf("%d duplicates over %d sessions, want at most one a session", d, sessions)
	}
}

// writeLog is a connection that records the size of every write and can be
// told to fail one of them.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	sizes  []int
	failAt int // 1-based ordinal of the write to fail; 0 for none
}

func (c *writeLog) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sizes = append(c.sizes, len(p))
	fail := len(c.sizes) == c.failAt
	c.mu.Unlock()
	if fail {
		_ = c.Conn.Close()
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

func (c *writeLog) writes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.sizes...)
}

// TestBacklogCrossesInBursts: frames spooled before the first dial succeeds
// cross in the hello, the lone first frame, and then one write per buffer
// of bytes, not one per frame. WaitDrain is called with most of them still
// in the buffer; nothing but the pump's own flush rule puts them on the wire.
func TestBacklogCrossesInBursts(t *testing.T) {
	col := NewCollector(compress.DefaultRegistry(4), nil)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	release := make(chan struct{})
	var conn *writeLog
	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 5,
		Dialer: heldDialer(release, func(c net.Conn) net.Conn { conn = &writeLog{Conn: c}; return conn }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	pool, _ := sampleFrames(t, 16)
	const frames = 400
	for id := uint64(0); id < frames; id++ {
		f := pool[id%uint64(len(pool))]
		f.ID = id
		if err := up.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := up.WaitDrain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, col, frames)
	sizes := conn.writes()[1:] // without the hello
	bytes := 0
	for _, n := range sizes {
		bytes += n
	}
	first := writeFrames(t, pool[0])
	if sizes[0] != len(first) {
		t.Fatalf("the first write after the hello is %d bytes, want frame 0 alone (%d)", sizes[0], len(first))
	}
	if limit := 1 + (bytes+4095)/4096 + 1; len(sizes) > limit {
		t.Fatalf("%d frames (%d bytes) crossed in %d writes, want <= %d", frames, bytes, len(sizes), limit)
	}
	if st := up.Stats(); st.FramesSent != frames || st.Dials != 1 {
		t.Fatalf("stats = %+v, want %d frames sent over one session", st, frames)
	}
}

// TestIdleSessionSendsPromptly: a frame handed to an idle session reaches
// the sink with no further Send and no timer behind it, and a stream that
// outlasts WriteTimeout and AckTimeout several times over, idle gaps
// included, never trips on a deadline armed for an earlier write, nor on
// an ACK read while every frame on the socket is already acknowledged.
func TestIdleSessionSendsPromptly(t *testing.T) {
	col := NewCollector(compress.DefaultRegistry(4), nil)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 6,
		WriteTimeout: 50 * time.Millisecond, AckTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	var id uint64
	for _, gap := range []time.Duration{0, 120 * time.Millisecond, time.Millisecond, time.Millisecond, 120 * time.Millisecond} {
		time.Sleep(gap)
		for burst := 0; burst < 40; burst++ {
			if err := up.Send(smallFrame(id)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		// One more, alone, into a session that has gone quiet.
		if err := up.WaitDrain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := up.Send(smallFrame(id)); err != nil {
			t.Fatal(err)
		}
		id++
		waitFrames(t, col, int(id))
	}
	if st := up.Stats(); st.SendFailures != 0 || st.AckFailures != 0 || st.Dials != 1 {
		t.Fatalf("stats = %+v, want one session and no failure", st)
	}
}

// TestFailedBurstCountsNoFrame: frames count as sent when a socket write
// has carried them, so a burst whose write fails adds nothing to
// FramesSent and emits no send event, and the send-fail names the first
// frame that did not make it. Send events stay one per frame, in ID order
// within a session. The failed write closes the connection under the ACK
// reader too, and that is no second failure: no ACK failure is counted or
// traced.
func TestFailedBurstCountsNoFrame(t *testing.T) {
	col := NewCollector(compress.DefaultRegistry(4), nil)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	release := make(chan struct{})
	var mu sync.Mutex
	var events []Event
	dials := 0
	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 8,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		Dialer: heldDialer(release, func(c net.Conn) net.Conn {
			dials++
			if dials == 1 {
				// Hello, the lone frame, then the burst: fail the burst.
				return &writeLog{Conn: c, failAt: 3}
			}
			return c
		}),
		OnEvent: func(e Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	const frames = 8
	for i := uint64(0); i < frames; i++ {
		if err := up.Send(smallFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := up.WaitDrain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := up.Stats()
	_ = up.Close()
	// Session one: frame 0. Session two: frame 1 alone, then 2..7.
	if st.FramesSent != frames || st.SendFailures != 1 || st.AckFailures != 0 {
		t.Fatalf("stats = %+v, want %d frames sent (none for the failed burst), one send failure and no ACK failure", st, frames)
	}
	mu.Lock()
	defer mu.Unlock()
	var sends []uint64
	for _, e := range events {
		switch e.Kind {
		case "send":
			sends = append(sends, e.ID)
		case "send-fail":
			if e.ID != 1 || len(sends) != 1 {
				t.Fatalf("send-fail for frame %d after sends %v, want frame 1 after [0]", e.ID, sends)
			}
		case "ack-fail":
			t.Fatalf("ack-fail (%s) after sends %v: the failed write's closed connection is not an ACK failure", e.Err, sends)
		}
	}
	for i, id := range sends {
		if id != uint64(i) {
			t.Fatalf("send events %v, want one per frame in ID order", sends)
		}
	}
	if len(sends) != frames {
		t.Fatalf("%d send events, want %d", len(sends), frames)
	}
}
