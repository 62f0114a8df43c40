package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/store"
)

// sessionClient is a raw reliable-session client for collector tests:
// hand-rolled hello, frames, and ACK reads, so tests can drive exactly
// the wire interleavings the resilient uplink would never produce. Its
// hello asks for lockstep (an ACK every frame), so each send is answered
// by its own ACK however the collector's reads fall.
type sessionClient struct {
	conn net.Conn
	w    *Writer
	br   *bufio.Reader
}

func dialSession(t *testing.T, addr string, deviceID uint64) *sessionClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHello(conn, deviceID, 1); err != nil {
		t.Fatal(err)
	}
	return &sessionClient{conn: conn, w: NewWriter(conn), br: bufio.NewReader(conn)}
}

func (s *sessionClient) send(t *testing.T, f Frame) {
	t.Helper()
	if err := s.w.Send(f); err != nil {
		t.Fatal(err)
	}
	if err := s.w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func (s *sessionClient) ack(t *testing.T) uint64 {
	t.Helper()
	_ = s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	next, err := readAck(s.br)
	if err != nil {
		t.Fatalf("reading ack: %v", err)
	}
	return next
}

// deviceAcked returns a device's cumulative watermark at the collector
// (all IDs below it were delivered) and whether the device is known,
// resident or evicted.
func deviceAcked(c *Collector, deviceID uint64) (uint64, bool) {
	sh := c.shard(deviceID)
	sh.mu.Lock()
	dev, ok := sh.devices[deviceID]
	sh.mu.Unlock()
	if ok {
		dev.mu.Lock()
		defer dev.mu.Unlock()
		return dev.next, true
	}
	if c.wm != nil {
		return c.wm.Load(deviceID)
	}
	return 0, false
}

// badConns reads the transport.collector.bad_conns counter of the
// observer a collector was instrumented with.
func badConns(o *obs.Observer) int64 {
	return o.Registry().Counter("transport.collector.bad_conns").Value()
}

// TestCollectorWatermarkOverflowRejected is the regression for the
// watermark wrap bug: a frame with ID MaxUint64 used to set
// next = ID+1 = 0, silently re-opening every past ID for redelivery.
// The collector must reject the frame as a bad connection and keep the
// watermark (and dedup) intact.
func TestCollectorWatermarkOverflowRejected(t *testing.T) {
	o := obs.New(0)
	col := NewCollector(compress.DefaultRegistry(4), nil).Instrument(o)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	s := dialSession(t, addr.String(), 42)
	s.send(t, smallFrame(0))
	if next := s.ack(t); next != 1 {
		t.Fatalf("ack after frame 0 = %d, want 1", next)
	}
	overflow := smallFrame(0)
	overflow.ID = math.MaxUint64
	s.send(t, overflow)
	// The collector drops the connection without acking the poison frame.
	_ = s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readAck(s.br); err == nil {
		t.Fatal("collector acked a watermark-overflowing frame")
	}
	_ = s.conn.Close()

	// Reconnect and retransmit frame 0: with the watermark intact it is a
	// duplicate. Under the wrap bug it would be delivered a second time.
	s2 := dialSession(t, addr.String(), 42)
	defer s2.conn.Close()
	s2.send(t, smallFrame(0))
	if next := s2.ack(t); next != 1 {
		t.Fatalf("ack after retransmit = %d, want 1 (watermark lost)", next)
	}
	if f, d := col.Frames(), col.Duplicates(); f != 1 || d != 1 {
		t.Fatalf("frames=%d duplicates=%d, want 1 and 1 (exactly-once broken)", f, d)
	}
	if badConns(o) == 0 {
		t.Fatal("overflow frame was not counted as a bad connection")
	}
	if next, ok := deviceAcked(col, 42); !ok || next != 1 {
		t.Fatalf("device watermark = %d ok=%v, want 1 true", next, ok)
	}
}

// TestCollectorSameDeviceSessionsSerializedAndOrdered is the regression
// for concurrent same-device sink races: a zombie connection surviving a
// redial could invoke the sink concurrently and out of ID order, because
// delivery was decided under the lock but the sink ran outside it. With
// single-writer sessions the second connection kicks the first, and sink
// calls are serialized and ID-ordered per device.
func TestCollectorSameDeviceSessionsSerializedAndOrdered(t *testing.T) {
	o := obs.New(64)
	var mu sync.Mutex
	var order []uint64
	inSink, maxConc := 0, 0
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	sink := func(f Frame, _ []float64) {
		mu.Lock()
		inSink++
		if inSink > maxConc {
			maxConc = inSink
		}
		order = append(order, f.ID)
		mu.Unlock()
		if f.ID == 0 {
			once.Do(func() {
				entered <- struct{}{}
				<-release // park the zombie session mid-sink
			})
		}
		mu.Lock()
		inSink--
		mu.Unlock()
	}
	col := NewCollector(compress.DefaultRegistry(4), sink).Instrument(o)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// Session A delivers frame 0 and parks inside the sink — a zombie
	// connection mid-delivery.
	a := dialSession(t, addr.String(), 9)
	defer a.conn.Close()
	a.send(t, smallFrame(0))
	<-entered

	// Session B redials with the same device ID while A is mid-sink and
	// retransmits everything unacked, then continues with frame 1.
	b := dialSession(t, addr.String(), 9)
	defer b.conn.Close()
	b.send(t, smallFrame(0))
	b.send(t, smallFrame(1))
	// Give a racy collector time to (wrongly) run B's delivery while A is
	// still parked, then let A finish.
	time.Sleep(100 * time.Millisecond)
	close(release)

	if next := b.ack(t); next != 1 {
		t.Fatalf("first ack on B = %d, want 1", next)
	}
	if next := b.ack(t); next != 2 {
		t.Fatalf("second ack on B = %d, want 2", next)
	}

	mu.Lock()
	defer mu.Unlock()
	if maxConc != 1 {
		t.Fatalf("sink ran %d-way concurrent for one device", maxConc)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("sink order = %v, want [0 1]", order)
	}
	if col.Frames() != 2 || col.Duplicates() != 1 {
		t.Fatalf("frames=%d duplicates=%d, want 2 and 1", col.Frames(), col.Duplicates())
	}
	if col.Kicked() != 1 {
		t.Fatalf("kicked = %d, want 1", col.Kicked())
	}
	if v := o.Registry().Counter("transport.collector.sessions_kicked").Value(); v != 1 {
		t.Fatalf("sessions_kicked counter = %d, want 1", v)
	}
}

// TestCollectorIdleEviction: devices beyond the idle bound are evicted
// down to a watermark entry, and dedup survives both the eviction and a
// collector restart carrying the serialized watermark table.
func TestCollectorIdleEviction(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	col := NewCollectorWith(reg, nil, CollectorConfig{Shards: 4, MaxIdleDevices: 2})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const devices = 6
	for id := uint64(1); id <= devices; id++ {
		s := dialSession(t, addr.String(), id)
		s.send(t, smallFrame(0))
		if next := s.ack(t); next != 1 {
			t.Fatalf("device %d ack = %d, want 1", id, next)
		}
		_ = s.conn.Close()
		// Detach is asynchronous; wait for the handler to let go before
		// the next device connects so the idle accounting is sequential.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if next, ok := deviceAcked(col, id); ok && next == 1 && col.ResidentDevices() <= 2+int(id) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("device %d never detached", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.ResidentDevices() > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("resident devices = %d, want <= 2", col.ResidentDevices())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if col.Evictions() < devices-2 {
		t.Fatalf("evictions = %d, want >= %d", col.Evictions(), devices-2)
	}

	// An evicted device reconnecting and retransmitting must still dedup:
	// its watermark was preserved in the table.
	s := dialSession(t, addr.String(), 6)
	s.send(t, smallFrame(0))
	if next := s.ack(t); next != 1 {
		t.Fatalf("evicted device retransmit ack = %d, want 1", next)
	}
	_ = s.conn.Close()
	if col.Duplicates() == 0 {
		t.Fatal("retransmit to evicted device was not deduplicated")
	}

	// Serialize the watermark table, restart the collector with it, and
	// verify dedup survives the restart.
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := col.Watermarks().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wm, err := store.ReadWatermarks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	col2 := NewCollectorWith(reg, nil, CollectorConfig{MaxIdleDevices: 2, Watermarks: wm})
	addr2, err := col2.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	s2 := dialSession(t, addr2.String(), 3)
	defer s2.conn.Close()
	s2.send(t, smallFrame(0))
	if next := s2.ack(t); next != 1 {
		t.Fatalf("post-restart retransmit ack = %d, want 1", next)
	}
	if col2.Frames() != 0 || col2.Duplicates() != 1 {
		t.Fatalf("post-restart frames=%d duplicates=%d, want 0 and 1", col2.Frames(), col2.Duplicates())
	}
}

// TestCollectorEvictReattachRace is the regression for the eviction
// window bug: detach used to delete the device from its shard map and
// release the shard lock *before* storing the watermark into the table,
// so a device redialing in that window found neither resident state nor
// a watermark entry, seeded next=0, and redelivered everything — exactly
// during the herd-reconnect scenario eviction exists for. Hammer
// immediate evict/reattach cycles (the idle slot is pinned by a filler
// device, so every detach of the hot device evicts) and assert the sink
// never sees a frame twice.
func TestCollectorEvictReattachRace(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	var mu sync.Mutex
	counts := map[uint64]int{}
	col := NewCollectorWith(reg, func(f Frame, _ []float64) {
		mu.Lock()
		counts[f.ID]++
		mu.Unlock()
	}, CollectorConfig{Shards: 1, MaxIdleDevices: 1})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// The filler device detaches first and occupies the single idle
	// slot, so every later detach of device 1 takes the evict path.
	const fillerID, fillerFrame = 2, uint64(1000)
	filler := dialSession(t, addr.String(), fillerID)
	filler.send(t, smallFrame(fillerFrame))
	if next := filler.ack(t); next != fillerFrame+1 {
		t.Fatalf("filler ack = %d, want %d", next, fillerFrame+1)
	}
	_ = filler.conn.Close()
	// Detach is asynchronous; its non-evict path stores the watermark,
	// which is the signal that the idle slot is taken.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := col.Watermarks().Load(fillerID); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("filler never detached")
		}
		time.Sleep(time.Millisecond)
	}

	// Evict/reattach cycles: close and immediately redial, so attach
	// races the previous handler's evicting detach. Frame 0 is resent
	// every cycle; if any interleaving loses the watermark it is
	// redelivered and the per-ID count breaks.
	const cycles = 200
	for i := uint64(0); i < cycles; i++ {
		s := dialSession(t, addr.String(), 1)
		if i > 0 {
			s.send(t, smallFrame(0))
			if next := s.ack(t); next != i {
				t.Fatalf("cycle %d: dup ack = %d, want %d (watermark lost)", i, next, i)
			}
		}
		s.send(t, smallFrame(i))
		if next := s.ack(t); next != i+1 {
			t.Fatalf("cycle %d: ack = %d, want %d", i, next, i+1)
		}
		_ = s.conn.Close()
	}

	mu.Lock()
	defer mu.Unlock()
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("frame %d delivered %d times, want exactly once", id, n)
		}
	}
	if len(counts) != cycles+1 {
		t.Fatalf("delivered %d distinct frames, want %d", len(counts), cycles+1)
	}
	if f, d := col.Frames(), col.Duplicates(); f != cycles+1 || d != cycles-1 {
		t.Fatalf("frames=%d duplicates=%d, want %d and %d", f, d, cycles+1, cycles-1)
	}
}

// TestResilientPipelinedDelivery: a hello that asks for an ACK interval of
// 0 gets DefaultAckEvery — a burst is acknowledged at least that often, in
// fewer ACKs than frames — and a session with the default configuration
// delivers exactly once with coalesced ACKs, and WaitDrain's notification
// path (no polling) sees the drain.
func TestResilientPipelinedDelivery(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	var mu sync.Mutex
	counts := map[uint64]int{}
	col := NewCollector(reg, func(f Frame, _ []float64) {
		mu.Lock()
		counts[f.ID]++
		mu.Unlock()
	})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	raw := NewCollector(reg, nil)
	rawAddr, err := raw.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn, err := net.DialTimeout("tcp", rawAddr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, 12, 0); err != nil {
		t.Fatal(err)
	}
	s := &sessionClient{conn: conn, w: NewWriter(conn), br: bufio.NewReader(conn)}
	const burst = 40
	for id := uint64(0); id < burst; id++ {
		if err := s.w.Send(smallFrame(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.w.Flush(); err != nil { // one write: the collector finds the burst buffered
		t.Fatal(err)
	}
	acks := 0
	for prev := uint64(0); prev < burst; acks++ {
		next := s.ack(t)
		if next <= prev || next-prev > DefaultAckEvery {
			t.Fatalf("ACK %d after %d: want every frame up to %d covered at least every %d", next, prev, burst, DefaultAckEvery)
		}
		prev = next
	}
	if acks >= burst {
		t.Fatalf("%d ACKs for a %d-frame burst: the hello's 0 was not read as DefaultAckEvery", acks, burst)
	}

	up, err := DialResilient(ResilientConfig{Addr: addr.String(), DeviceID: 11})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 64
	for i := uint64(0); i < frames; i++ {
		if err := up.Send(smallFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if got := up.Stats().Acked; got != frames {
		t.Fatalf("uplink watermark = %d, want %d", got, frames)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(counts) != frames {
		t.Fatalf("delivered %d distinct frames, want %d", len(counts), frames)
	}
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("frame %d delivered %d times", id, n)
		}
	}
	if col.Frames() != frames {
		t.Fatalf("collector frames = %d, want %d", col.Frames(), frames)
	}
}

// TestResilientPipelinedRedial: a connection reset mid-stream on the
// pipelined protocol triggers a redial and retransmit; the collector's
// watermark keeps delivery exactly-once.
func TestResilientPipelinedRedial(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	var mu sync.Mutex
	counts := map[uint64]int{}
	col := NewCollector(reg, func(f Frame, _ []float64) {
		mu.Lock()
		counts[f.ID]++
		mu.Unlock()
	})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// Kill the first connection after it is established so the uplink
	// has to back off, redial, and resend whatever was unacked.
	var dialMu sync.Mutex
	dials := 0
	dialer := func(a string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", a, timeout)
		dialMu.Lock()
		first := dials == 0
		dials++
		dialMu.Unlock()
		if err == nil && first {
			go func() {
				time.Sleep(20 * time.Millisecond)
				_ = conn.Close()
			}()
		}
		return conn, err
	}
	up, err := DialResilient(ResilientConfig{
		Addr: addr.String(), DeviceID: 13, AckEvery: 4,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		Dialer: dialer,
	})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 40
	for i := uint64(0); i < frames; i++ {
		if err := up.Send(smallFrame(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // stretch the stream across the reset
	}
	if err := up.WaitDrain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(counts) != frames {
		t.Fatalf("delivered %d distinct frames, want %d", len(counts), frames)
	}
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("frame %d delivered %d times", id, n)
		}
	}
}

// raceBuild reports whether the binary was built with -race, under which
// sync.Pool drops a quarter of its Puts and pooled buffers are rebuilt
// mid-measurement.
func raceBuild() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestAllocsCollectorDecode pins the decode-buffer contract: after
// warm-up, decoding a frame into its connection's buffer on the collector
// hot path performs no heap allocation.
func TestAllocsCollectorDecode(t *testing.T) {
	c := NewCollector(compress.DefaultRegistry(4), nil)
	enc, err := compress.NewPAA().CompressRatio([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	frame := Frame{ID: 3, Enc: enc}
	s := new(connState)
	decode := func() {
		values := c.decode(s, frame)
		if values == nil || len(values) != frame.Enc.N {
			t.Fatalf("decode = %v, want %d values", values, frame.Enc.N)
		}
	}
	for i := 0; i < 400; i++ {
		decode()
	}
	if avg := testing.AllocsPerRun(300, decode); avg != 0 {
		t.Fatalf("collector decode allocates %.2f/op, want 0", avg)
	}
}

// steadyFrames is n in-order frames alternating between two codecs, the
// shape of a stream once the dictionary is warm. Payload sizes cycle
// through 64-111 bytes and every payload is filled with its frame's own
// pattern, so a reader that reuses one buffer shows up if a shorter frame
// comes back with a longer one's tail or a stale prefix.
func steadyFrames(n int) []Frame {
	frames := make([]Frame, n)
	for i := range frames {
		data := make([]byte, 64+i%48)
		for j := range data {
			data[j] = byte(i + j)
		}
		frames[i] = Frame{ID: uint64(i), Label: i % 3, Enc: compress.Encoded{Codec: "bufflossy", Data: data, N: 128}}
		if i%2 == 1 {
			frames[i].Enc.Codec = "gorilla"
		}
	}
	return frames
}

// TestAllocsFrameSend: writing a steady-state frame allocates nothing (the
// header is built in the Writer's own scratch; no stack buffer escapes
// through bufio.Writer.Write).
func TestAllocsFrameSend(t *testing.T) {
	frames := steadyFrames(600)
	w := NewWriter(io.Discard)
	i := 0
	send := func() {
		if err := w.Send(frames[i]); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 8 {
		send()
	}
	if avg := testing.AllocsPerRun(500, send); avg != 0 {
		t.Fatalf("Send allocates %.2f/op, want 0", avg)
	}
}

// TestAllocsFrameRecv: reading a steady-state frame allocates nothing — the
// codec name comes out of the dictionary and the payload lands in the
// Reader's own buffer, which the next Recv overwrites.
func TestAllocsFrameRecv(t *testing.T) {
	frames := steadyFrames(600)
	r := NewReader(bytes.NewReader(writeFrames(t, frames...)))
	i := 0
	recv := func() {
		f, err := r.Recv()
		if err != nil || !sameFrame(f, frames[i]) {
			t.Fatalf("frame %d = %+v, %v", i, f, err)
		}
		i++
	}
	for i < 64 { // every payload size once, so the buffer has reached its size
		recv()
	}
	if avg := testing.AllocsPerRun(500, recv); avg != 0 {
		t.Fatalf("Recv allocates %.2f/op, want 0", avg)
	}
}

// TestReaderResetRemapsSlots: a reset Reader reads the next stream afresh —
// its codec slots are the new stream's, though that stream gives the same
// names the other slots — and a name it has read before, on any stream,
// costs no allocation. This is the collector's pooled Reader from
// one session to the next.
func TestReaderResetRemapsSlots(t *testing.T) {
	streams := [2][]Frame{steadyFrames(4), steadyFrames(4)} // bufflossy in slot 0, gorilla in 1
	for i := range streams[1] {
		f := &streams[1][i]
		f.Enc.Codec = map[string]string{"bufflossy": "gorilla", "gorilla": "bufflossy"}[f.Enc.Codec]
	}
	var in bytes.Buffer
	for i := 0; i < 200; i++ {
		in.Write(writeFrames(t, streams[i%2]...))
	}
	r := NewReader(&in)
	i := 0
	stream := func() {
		r.reset()
		for _, want := range streams[i%2] {
			if got, err := r.Recv(); err != nil || !sameFrame(got, want) {
				t.Fatalf("stream %d: frame %+v, %v, want %+v", i, got, err, want)
			}
		}
		i++
	}
	stream()
	stream()
	if avg := testing.AllocsPerRun(100, stream); avg != 0 {
		t.Fatalf("a stream of names the Reader has read before allocates %.2f, want 0", avg)
	}
}

// TestCollectorDeliversWhatItHoldsAfterAckFails: a device that resets its
// connection right after a burst leaves whole frames in the collector's
// buffers and nobody to acknowledge them to. The failed ACK write must not
// throw them away — the device's next session learns the watermark from its
// first ACK, so every frame delivered now is one it does not send again.
func TestCollectorDeliversWhatItHoldsAfterAckFails(t *testing.T) {
	const frames = 41
	gate := make(chan struct{})
	o := obs.New(0)
	col := NewCollector(compress.DefaultRegistry(4), func(f Frame, _ []float64) {
		if f.ID == 1 {
			<-gate // hold the session on the burst's first frame until the device is gone
		}
	}).Instrument(o)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	conn, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).SetLinger(0) // Close resets, as closing with unread ACKs does
	if err := writeHello(conn, 31, 0); err != nil {
		t.Fatal(err)
	}
	w := NewWriter(conn)
	if err := w.Send(smallFrame(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, col, 1)
	for id := uint64(1); id < frames; id++ {
		if err := w.Send(smallFrame(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, col, 2) // the handler has the burst in its buffer and is inside the sink
	_ = conn.Close()
	close(gate)
	waitFrames(t, col, frames)
	if next, ok := deviceAcked(col, 31); !ok || next != frames {
		t.Fatalf("watermark = %d (known %v), want %d", next, ok, frames)
	}
	if bad := badConns(o); bad != 0 {
		t.Fatalf("%d bad connections, want 0: a reset is not malformed input", bad)
	}
}

// TestPooledConnStateOwnership: the collector's per-connection state (read
// buffer, frame Reader with its payload buffer and codec slots, ACK writer)
// comes from a pool, and a handler owns its state until it returns. One
// device runs eight sessions back to back. Every other one is kicked while
// its handler still has most of a burst to drain — the sink holds the
// device's lock a little while per frame, so the kicked handler waits on
// it with a frame in its own buffers while the takeover session streams on
// pooled state. The others end cleanly, and the next session, likely on
// the state they put back, maps the two codecs to the opposite dictionary
// slots. Every delivery must carry its own codec name and decode to its own
// values, in ID order, and every frame of a clean session must arrive.
func TestPooledConnStateOwnership(t *testing.T) {
	const sessions, burst = 8, 48
	reg := compress.DefaultRegistry(4)
	rows, _ := datasets.CBF(burst, datasets.CBFConfig{Seed: 3})
	codecs := [2]compress.Codec{}
	for i, name := range []string{"gorilla", "chimp"} {
		c, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("no %s codec", name)
		}
		codecs[i] = c
	}
	// Frame id is row id%burst in codec sent[id]; even sessions give slot 0
	// to gorilla, odd ones to chimp.
	frames := make([]Frame, sessions*burst)
	for id := range frames {
		s, i := id/burst, id%burst
		enc, err := compress.Compress(codecs[(s+i)%2], rows[i])
		if err != nil {
			t.Fatal(err)
		}
		frames[id] = Frame{ID: uint64(id), Label: i % 3, Enc: enc}
	}

	var mu sync.Mutex
	delivered := make([]bool, len(frames))
	var last uint64
	var bad []string
	opened := make(chan uint64, sessions) // the first frame of each session
	col := NewCollector(reg, func(f Frame, values []float64) {
		if f.ID%burst == 0 {
			opened <- f.ID
		}
		time.Sleep(50 * time.Microsecond)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case f.ID >= uint64(len(frames)):
			bad = append(bad, fmt.Sprintf("unknown frame %d", f.ID))
		case f.Enc.Codec != frames[f.ID].Enc.Codec:
			bad = append(bad, fmt.Sprintf("frame %d codec %q, sent %q", f.ID, f.Enc.Codec, frames[f.ID].Enc.Codec))
		case !slices.Equal(values, rows[f.ID%burst]):
			bad = append(bad, fmt.Sprintf("frame %d (%s) decoded to other values", f.ID, f.Enc.Codec))
		case last != 0 && f.ID <= last:
			bad = append(bad, fmt.Sprintf("frame %d delivered after %d", f.ID, last))
		default:
			delivered[f.ID] = true
			last = f.ID
		}
	})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	kicked := 0
	for s := 0; s < sessions; s++ {
		conn, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		w := NewWriter(conn)
		if err := w.hello(77, 0); err != nil {
			t.Fatal(err)
		}
		for _, f := range frames[s*burst : (s+1)*burst] {
			if err := w.Send(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if s%2 == 1 && s < sessions-1 {
			// The next session takes over while this one drains. It dials
			// once this one is attached: handlers attach in the order they
			// run, not the order their connections were made.
			for id := uint64(0); id != uint64(s*burst); {
				select {
				case id = <-opened:
				case <-time.After(5 * time.Second):
					t.Fatalf("session %d never delivered its first frame", s)
				}
			}
			kicked++
			continue
		}
		br := bufio.NewReader(conn)
		for want := uint64((s + 1) * burst); ; {
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			next, err := readAck(br)
			if err != nil {
				t.Fatalf("session %d: reading ack: %v", s, err)
			}
			if next == want {
				break
			}
		}
		_ = conn.Close()
	}

	mu.Lock()
	defer mu.Unlock()
	if len(bad) > 0 {
		t.Fatalf("%d bad deliveries, first: %s", len(bad), bad[0])
	}
	for id, ok := range delivered {
		if s := id / burst; !ok && (s%2 == 0 || s == sessions-1) {
			t.Fatalf("frame %d of clean session %d never delivered", id, s)
		}
	}
	if col.Kicked() < kicked {
		t.Fatalf("%d sessions kicked, want at least %d", col.Kicked(), kicked)
	}
}
