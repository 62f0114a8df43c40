package transport

import (
	"bytes"
	"errors"
	"net"
	"runtime"
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
	if got := up.Acked(); got != uint64(len(frames)) {
		t.Fatalf("uplink watermark = %d, want %d", got, len(frames))
	}
	if next, ok := col.Acked(7); !ok || next != uint64(len(frames)) {
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
	if acks == 0 || up.Acked() != frames {
		t.Fatalf("%d ack events, watermark %d, want the last to be %d", acks, up.Acked(), frames)
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
	acks := o.Registry().Histogram("transport.collector.ack_batch", nil)
	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 9, SpoolSegments: frames,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	// One frame per codec the wire workloads of cmd/adaedge-e2e cycle through
	// (the stdlib flate decoder behind gzip and zlib allocates per stream).
	var pool []Frame
	all, _ := sampleFrames(t, 17)
	for _, f := range all {
		switch f.Enc.Codec {
		case "gorilla", "chimp", "sprintz", "buff", "paa", "pla", "fft", "lttb":
			pool = append(pool, f)
		}
	}
	if len(pool) != 8 {
		t.Fatalf("%d of the 8 wire codecs in the registry", len(pool))
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
	runtime.ReadMemStats(&before)
	acks0 := acks.Count()
	burst()
	runtime.ReadMemStats(&after)
	mallocs, acked := int64(after.Mallocs-before.Mallocs), acks.Count()-acks0
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
