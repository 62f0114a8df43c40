package transport

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/store"
)

func smallFrame(id uint64) Frame {
	return Frame{ID: id, Label: 1, Enc: compress.Encoded{Codec: "paa", Data: []byte{byte(id), 1, 2, 3}, N: 4}}
}

// TestResilientDelivery: frames spooled through the resilient uplink reach
// the collector sink exactly once, byte-identical, and the cumulative ACK
// watermark covers them all.
func TestResilientDelivery(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	var mu sync.Mutex
	payloads := map[uint64][]byte{}
	counts := map[uint64]int{}
	col := NewCollector(reg, func(f Frame, _ []float64) {
		mu.Lock()
		payloads[f.ID] = append([]byte(nil), f.Enc.Data...)
		counts[f.ID]++
		mu.Unlock()
	})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	up, err := DialResilient(ResilientConfig{Addr: addr.String(), DeviceID: 7})
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sampleFrames(t, 10)
	for _, f := range frames {
		if err := up.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if got := up.Stats().Acked; got != uint64(len(frames)) {
		t.Fatalf("uplink watermark = %d, want %d", got, len(frames))
	}
	if next, ok := deviceAcked(col, 7); !ok || next != uint64(len(frames)) {
		t.Fatalf("collector watermark = %d ok=%v", next, ok)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, f := range frames {
		if counts[f.ID] != 1 {
			t.Fatalf("frame %d delivered %d times", f.ID, counts[f.ID])
		}
		if !bytes.Equal(payloads[f.ID], f.Enc.Data) {
			t.Fatalf("frame %d payload differs", f.ID)
		}
	}
	if up.Send(smallFrame(99)) != ErrUplinkClosed {
		t.Fatal("Send after Close must fail with ErrUplinkClosed")
	}
}

// TestResilientRedial: dial failures back off and retry until the
// collector is reachable; nothing is lost in between.
func TestResilientRedial(t *testing.T) {
	col := NewCollector(compress.DefaultRegistry(4), nil)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	var dialMu sync.Mutex
	failsLeft := 3
	cfg := ResilientConfig{
		Addr:        addr.String(),
		DeviceID:    1,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Dialer: func(a string, timeout time.Duration) (net.Conn, error) {
			dialMu.Lock()
			fail := failsLeft > 0
			if fail {
				failsLeft--
			}
			dialMu.Unlock()
			if fail {
				return nil, errors.New("injected dial failure")
			}
			return net.DialTimeout("tcp", a, timeout)
		},
	}
	up, err := DialResilient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		if err := up.Send(smallFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := up.Stats()
	_ = up.Close()
	if st.DialFailures != 3 {
		t.Fatalf("dial failures = %d, want 3", st.DialFailures)
	}
	if st.Dials < 4 {
		t.Fatalf("dials = %d, want >= 4", st.Dials)
	}
	if st.Acked != 5 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResilientSpoolPressure: an unreachable collector fills the bounded
// spool, fires the high-water pressure callback (the Retarget hook), and
// sheds with ErrSpoolFull once full.
func TestResilientSpoolPressure(t *testing.T) {
	var mu sync.Mutex
	var events []bool
	cfg := ResilientConfig{
		Addr:          "127.0.0.1:1",
		DeviceID:      2,
		SpoolSegments: 4,
		HighWater:     0.5,
		BackoffBase:   time.Millisecond,
		BackoffMax:    2 * time.Millisecond,
		Dialer: func(string, time.Duration) (net.Conn, error) {
			return nil, errors.New("link permanently down")
		},
		OnPressure: func(over bool) {
			mu.Lock()
			events = append(events, over)
			mu.Unlock()
		},
	}
	up, err := DialResilient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	for i := uint64(0); i < 4; i++ {
		if err := up.Send(smallFrame(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := up.Send(smallFrame(4)); !errors.Is(err, store.ErrSpoolFull) {
		t.Fatalf("want ErrSpoolFull, got %v", err)
	}
	st := up.Stats()
	if st.Pending != 4 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 || !events[0] {
		t.Fatalf("pressure events = %v, want one over=true", events)
	}
}

// TestWaitDrainReturnsOnClose: frames pending behind a collector that is
// never reached do not hold WaitDrain to its timeout once Close runs; it
// returns ErrUplinkClosed then.
func TestWaitDrainReturnsOnClose(t *testing.T) {
	up, err := DialResilient(ResilientConfig{
		Addr:        "127.0.0.1:1",
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		Dialer: func(string, time.Duration) (net.Conn, error) {
			return nil, errors.New("link permanently down")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if err := up.Send(smallFrame(0)); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		_ = up.Close()
	}()
	start := time.Now()
	err = up.WaitDrain(2 * time.Second)
	if waited := time.Since(start); !errors.Is(err, ErrUplinkClosed) || waited > time.Second {
		t.Fatalf("WaitDrain = %v after %v, want ErrUplinkClosed soon after the Close at 50ms", err, waited)
	}
}

// TestSessionTraceSingleWriterOrdered: the pump alone writes the delivery
// trace, so in a fault-free session of the default configuration OnEvent
// is never entered concurrently, and an ACK is traced only after every
// frame it covers: ack(w) comes after send(w-1).
func TestSessionTraceSingleWriterOrdered(t *testing.T) {
	const frames = 4096
	col := NewCollector(compress.DefaultRegistry(4), nil)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	var inUse, overlapped atomic.Bool
	sent := make([]bool, frames)
	acks := 0
	var bad []Event
	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 14, SpoolSegments: frames,
		OnEvent: func(e Event) {
			if !inUse.CompareAndSwap(false, true) {
				overlapped.Store(true)
				return
			}
			defer inUse.Store(false)
			switch e.Kind {
			case "dial":
			case "send":
				sent[e.ID] = true
			case "ack":
				acks++
				if e.ID == 0 || !sent[e.ID-1] {
					bad = append(bad, e)
				}
			default:
				bad = append(bad, e)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < frames; id++ {
		if err := up.Send(smallFrame(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() {
		t.Fatal("OnEvent was entered concurrently")
	}
	if len(bad) != 0 {
		t.Fatalf("%d events out of place in a fault-free session, first %+v (an ack(w) needs send(w-1) before it)", len(bad), bad[0])
	}
	for id, ok := range sent {
		if !ok {
			t.Fatalf("no send event for frame %d", id)
		}
	}
	if acks == 0 || up.Stats().Acked != frames {
		t.Fatalf("%d ack events, watermark %d, want the last to be %d", acks, up.Stats().Acked, frames)
	}
}

// TestBackoffDeterministic: the jitter stream is a pure function of the
// seed, and every delay stays inside [ceil/2, ceil].
func TestBackoffDeterministic(t *testing.T) {
	base, max := time.Millisecond, 100*time.Millisecond
	b1 := newBackoff(base, max, 42)
	b2 := newBackoff(base, max, 42)
	b3 := newBackoff(base, max, 43)
	diverged := false
	ceil := base
	for i := 0; i < 20; i++ {
		d1, d2, d3 := b1.next(), b2.next(), b3.next()
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed diverged (%v vs %v)", i, d1, d2)
		}
		if d1 != d3 {
			diverged = true
		}
		if d1 < ceil/2 || d1 > ceil {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, d1, ceil/2, ceil)
		}
		if ceil < max {
			ceil *= 2
			if ceil > max {
				ceil = max
			}
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter")
	}
	b1.reset()
	if d := b1.next(); d > base {
		t.Fatalf("post-reset delay %v exceeds base %v", d, base)
	}
}

// TestAllocsUplinkSend: spooling a frame allocates nothing — the entry is
// copied into the spool's ring, not boxed. The pump is parked inside its
// first dial for the whole measurement, so what is counted is Send alone.
func TestAllocsUplinkSend(t *testing.T) {
	release := make(chan struct{})
	up, err := DialResilient(ResilientConfig{
		Addr:          "127.0.0.1:1",
		SpoolSegments: 2048,
		Dialer: func(string, time.Duration) (net.Conn, error) {
			<-release
			return nil, errors.New("released")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	defer close(release)
	frame := smallFrame(0)
	send := func() {
		if err := up.Send(frame); err != nil {
			t.Fatal(err)
		}
		frame.ID++
	}
	for frame.ID <= 1024 { // one past a ring size: the ring has doubled to the bound
		send()
	}
	if avg := testing.AllocsPerRun(1000, send); avg != 0 {
		t.Fatalf("Send allocates %.2f/op, want 0", avg)
	}
}

// TestAllocsSessionSteadyState sends 4096 frames through a warm pipelined
// session on loopback — Send, spool, pump, socket, collector Recv, decode,
// sink, ACK, spool release — and counts every malloc in the process.
//
// The one thing left allocating is the collector's writeAck, one malloc per
// ACK (see the comment there for why it still does), and how many ACKs 4096
// frames take is the collector's call: at least one per ackEvery frames,
// more whenever its read side runs dry, which depends on who gets the CPU.
// So the pin is on the rest: beyond one per ACK the collector wrote (its
// ack_batch histogram counts them; the device may apply several in one
// go), at most one malloc per 50 frames (WaitDrain's timer and channel, a
// decode buffer the GC took back from the pool).
func TestAllocsSessionSteadyState(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const frames = 4096
	var delivered atomic.Int64
	o := obs.New(64)
	col := NewCollector(compress.DefaultRegistry(4), func(f Frame, values []float64) {
		if len(values) == f.Enc.N {
			delivered.Add(1)
		}
	}).Instrument(o)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	acks := func() int64 { return o.Registry().Snapshot().Histograms["transport.collector.ack_batch"].Count }
	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 9, SpoolSegments: frames,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	// One frame per codec in the registry, gzip and zlib included: their
	// decoder allocates nothing either.
	pool, _ := sampleFrames(t, 17)
	if n := len(compress.DefaultRegistry(4).Names()); n != len(pool) {
		t.Fatalf("%d frames for the registry's %d codecs", len(pool), n)
	}
	var id uint64
	burst := func() {
		for i := 0; i < frames; i++ {
			f := pool[i%len(pool)]
			f.ID = id
			id++
			if err := up.Send(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := up.WaitDrain(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	burst() // dial, codec dictionary, ring, read buffer, decode pool
	var before, after runtime.MemStats
	acks0 := acks()
	runtime.ReadMemStats(&before)
	burst()
	runtime.ReadMemStats(&after)
	mallocs, acked := int64(after.Mallocs-before.Mallocs), acks()-acks0
	if got := delivered.Load(); got != 2*frames {
		t.Fatalf("%d of %d frames delivered and decoded", got, 2*frames)
	}
	t.Logf("%d mallocs and %d ACKs for %d frames: %.3f allocs/frame, %.3f outside writeAck",
		mallocs, acked, frames, float64(mallocs)/frames, float64(mallocs-acked)/frames)
	if mallocs <= 0 {
		t.Error("no malloc at all: writeAck stopped escaping, so adaedge-e2e's wire_replay can read allocs_per_segment = 0, which its smoke test fails (see writeAck)")
	}
	if rest := mallocs - acked; rest > frames/50 {
		t.Errorf("%d mallocs beyond writeAck's for %d frames, want <= %d", rest, frames, frames/50)
	}
}

// TestAllocsPerRedial forces redials on loopback and pins what one costs the
// product: every malloc in the process per redial, less what a bare
// net.Dial + Accept + Close costs the standard library, measured in the same
// test. Each redial is a whole session: the test closes the device's
// connection, the next Send fails on it, the pump backs off and redials, and
// the new session opens with the hello and a lone frame, takes its ACK, and
// streams a frame in a second codec, which the collector decodes and
// delivers.
//
// The session's own state — the uplink's reader, writer, stream state,
// backoff timer and reader hand-offs, the collector's pooled reader, frame
// Reader and ACK writer, the codec names — is reset in place, so none of it
// is in the count. What is left above the bare loop reads 10: two ACKs
// (writeAck's malloc, kept on purpose), the collector's handler goroutine,
// WaitDrain's timer and channel (4), and three errors the standard library
// builds for the closed connection (the failed write's deadline and write,
// the pump's second Close). A redial that reallocates its state reads 45.
func TestAllocsPerRedial(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const redials = 200
	var delivered atomic.Int64
	col := NewCollector(compress.DefaultRegistry(4), func(f Frame, values []float64) {
		if len(values) == f.Enc.N {
			delivered.Add(1)
		}
	})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	conns := make(chan net.Conn, 1)
	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 3, SpoolSegments: 16,
		BackoffBase: time.Microsecond, BackoffMax: time.Microsecond,
		Dialer: func(a string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", a, timeout)
			if err == nil {
				conns <- conn
			}
			return conn, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	var pair []Frame
	all, _ := sampleFrames(t, 17)
	for _, f := range all {
		if f.Enc.Codec == "gorilla" || f.Enc.Codec == "chimp" {
			pair = append(pair, f)
		}
	}
	var id uint64
	redial := func() {
		for _, f := range pair {
			f.ID = id
			id++
			if err := up.Send(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := up.WaitDrain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		_ = (<-conns).Close()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	lnAddr := ln.Addr().String()
	bare := func() {
		c, err := net.DialTimeout("tcp", lnAddr, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		_ = c.Close()
		_ = s.Close()
	}

	perRun := func(f func()) float64 {
		for i := 0; i < 20; i++ { // dials, codec names, pools, buffers
			f()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < redials; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / redials
	}
	session, base := perRun(redial), perRun(bare)
	if got, want := delivered.Load(), int64(2*(20+redials)); got != want {
		t.Fatalf("%d of %d frames delivered and decoded", got, want)
	}
	if dials := up.Stats().Dials; dials < 20+redials {
		t.Fatalf("%d dials for %d sessions", dials, 20+redials)
	}
	t.Logf("%.2f mallocs per redial, %.2f per bare dial+accept+close: %.2f the product's", session, base, session-base)
	if extra := session - base; extra > 12 {
		t.Errorf("a redial allocates %.2f beyond a bare dial+accept+close, want <= 12", extra)
	}
}

// TestRedialAfterWriteTimeoutMidRead: a session can end on a failed write
// while its reader is blocked in a read, and then the reader ends on its
// own — on the connection the pump closed — without taking the stop the
// pump sent it. The next session's reader must not find that stop. The
// first collector ACKs the lone frame and then stops reading, so the burst
// behind it fills the socket buffers, the pump's write times out with the
// reader waiting for an ACK, and the redial goes to a real collector.
func TestRedialAfterWriteTimeoutMidRead(t *testing.T) {
	const frames = 768 // 24 MiB: more than loopback's socket buffers hold
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	release := make(chan struct{})
	defer close(release)
	go func() {
		conn, err := stall.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := readHello(br); err != nil {
			return
		}
		if f, err := NewReader(br).Recv(); err == nil {
			_ = writeAck(conn, f.ID+1)
		}
		<-release
	}()
	col := NewCollector(nil, nil)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	var events []Event
	dials := 0
	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 8, SpoolSegments: frames, WriteTimeout: 300 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: time.Millisecond,
		Dialer: func(a string, timeout time.Duration) (net.Conn, error) {
			if dials++; dials == 1 {
				a = stall.Addr().String()
			}
			return net.DialTimeout("tcp", a, timeout)
		},
		OnEvent: func(e Event) {
			if e.Kind != "send" {
				events = append(events, e)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32<<10)
	for id := uint64(0); id < frames; id++ {
		if err := up.Send(Frame{ID: id, Enc: compress.Encoded{Codec: "paa", Data: data, N: 4096}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range events {
		if e.Kind != "ack" {
			kinds = append(kinds, e.Kind)
		}
	}
	if got, want := strings.Join(kinds, " "), "dial send-fail backoff dial"; got != want {
		t.Fatalf("trace %q, want %q", got, want)
	}
	if col.Frames() != frames-1 {
		t.Fatalf("second collector got %d frames, want %d", col.Frames(), frames-1)
	}
}
