package transport

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/store"
)

// Collector state errors.
var (
	// ErrCollectorClosed is returned by Serve after Close.
	ErrCollectorClosed = errors.New("transport: collector closed")
	// ErrCollectorServing is returned by a second Serve call: silently
	// replacing the listener would leak the first one and orphan its
	// accept goroutine.
	ErrCollectorServing = errors.New("transport: collector already serving")
)

// ackWriteTimeout bounds collector-side ACK writes so a dead peer cannot
// pin a handler goroutine.
const ackWriteTimeout = 10 * time.Second

// Collector defaults; see CollectorConfig.
const (
	// DefaultCollectorShards is the device-map shard count when
	// CollectorConfig.Shards is 0.
	DefaultCollectorShards = 16
	// DefaultAckEvery is the ACK coalescing factor for a device whose
	// hello asks for 0.
	DefaultAckEvery = 16
	// maxAckEvery caps the negotiated coalescing factor so a hostile
	// hello cannot make the collector withhold ACKs indefinitely.
	maxAckEvery = 1024
)

// CollectorConfig parameterizes NewCollectorWith. The zero value selects
// the defaults NewCollector uses.
type CollectorConfig struct {
	// Shards is the device-map shard count (rounded up to a power of
	// two; default DefaultCollectorShards). Devices hash to shards by
	// ID, so unrelated devices never contend on one mutex.
	Shards int
	// MaxIdleDevices bounds resident per-device session state for
	// devices with no live connection. When the bound is exceeded,
	// idle devices are evicted down to a watermark entry in Watermarks.
	// 0 disables eviction (every device stays resident forever).
	MaxIdleDevices int
	// Watermarks seeds and receives evicted delivery watermarks. When
	// nil and MaxIdleDevices > 0, a fresh in-memory table is created.
	// Passing a table restored via store.ReadWatermarks lets dedup
	// survive a collector restart.
	Watermarks *store.Watermarks
}

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.Shards <= 0 {
		c.Shards = DefaultCollectorShards
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.MaxIdleDevices > 0 && c.Watermarks == nil {
		c.Watermarks = store.NewWatermarks()
	}
	return c
}

// Collector is the cloud-side receiver: it accepts connections from edge
// devices, parses segment frames, and hands decompressed (or raw encoded)
// segments to a sink. It is the minimal centralized counterpart an
// AdaEdge deployment transmits to.
//
// Every connection opens with a session hello (anything else is a bad
// connection). The collector tracks a per-device cumulative watermark and
// drops redelivered segments (the resilient uplink retransmits everything
// unacknowledged after a reconnect), so the sink sees each segment ID at
// most once per device even though the wire is at-least-once.
//
// Fleet-scale architecture (DESIGN.md §8):
//
//   - The per-device state map is sharded by device-ID hash; frames from
//     unrelated devices touch different mutexes and never contend.
//   - Each device is a single-writer session: a new reliable connection
//     for a device ID atomically takes ownership (bumping a generation
//     counter and closing the stale connection), and both the watermark
//     update and the sink call happen under the per-device mutex. Sink
//     calls for one device are therefore serialized and ID-ordered by
//     construction, no matter how many zombie connections a flaky
//     network leaves behind.
//   - ACKs are coalesced: every K frames (the hello's request) or when
//     the read side goes idle, so a device that asks for K = 1, or sends
//     one frame and waits, gets one ACK per frame.
//   - Idle devices beyond CollectorConfig.MaxIdleDevices are evicted
//     down to a watermark entry in a store.Watermarks table, so a fleet
//     of mostly-idle devices costs O(1) small entries each, and
//     eviction can never re-open a delivered ID.
//
// The sink's values slice and its frame's Enc.Data are only valid for the
// duration of the call (decode buffers are pooled, the payload buffer is
// the connection's Reader's); sinks that retain either must copy.
type Collector struct {
	cfg  CollectorConfig
	reg  *compress.Registry
	sink func(Frame, []float64)
	wm   *store.Watermarks // evicted watermarks; nil when eviction is off
	// om caches the obs handles; nil until Instrument. Written before
	// Serve (see Instrument), read by handler goroutines.
	om *collectorMetrics

	shards []*collectorShard

	// Frame counters are updated on every frame from per-connection
	// handler goroutines across all shards, hence atomics rather than a
	// global mutex that would re-serialize the sharded hot path.
	frames     atomic.Int64 // delivered to the sink
	duplicates atomic.Int64 // dropped by a device watermark
	kicked     atomic.Int64 // stale sessions displaced by a redial
	evictions  atomic.Int64 // idle devices evicted to the watermark table
	// idle counts resident devices with no live connection, across all
	// shards. Detach compare-and-increments it with a CAS loop against
	// cfg.MaxIdleDevices, so the idle bound is strict even under
	// concurrent detaches.
	idle atomic.Int64

	mu     sync.Mutex
	ln     net.Listener // guarded by mu
	wg     sync.WaitGroup
	conns  map[net.Conn]struct{} // live connections; guarded by mu
	closed bool                  // guarded by mu
}

// collectorShard is one slice of the per-device session map.
type collectorShard struct {
	mu      sync.Mutex
	devices map[uint64]*deviceState // guarded by mu
}

// deviceState is one device's delivery session, persistent across the
// device's reconnects (until evicted to the watermark table).
//
// Lock order: shard mutex before deviceState.mu (Close's watermark fold
// is the only path nesting them); never acquire the shard mutex while
// holding deviceState.mu. attach and detach deliberately hold the two
// one at a time, so a slow sink call (which runs under deviceState.mu)
// stalls only its own device, never the whole shard.
type deviceState struct {
	mu sync.Mutex
	// next is the cumulative watermark: every ID < next was delivered;
	// guarded by mu.
	next uint64
	// gen is the session generation. Each reliable connection that
	// attaches bumps it; a handler whose generation is stale has been
	// kicked and must stop delivering. Guarded by mu.
	gen uint64
	// conn is the owning session's connection, nil while the device is
	// idle; guarded by mu.
	conn net.Conn
	// idle reports that this device is counted in Collector.idle; set by
	// a non-evicting detach, cleared by the attach that revives the
	// session. Guarded by mu.
	idle bool
	// evicted marks a struct evicted down to the watermark table: the
	// watermark was stored before this flag was set, and the map entry
	// is on its way out. attach must not revive it — it clears the dead
	// entry and re-seeds from the table instead. Guarded by mu.
	evicted bool
	// health is the device's fleet-board row, cached so the per-frame
	// path touches atomics only (nil when uninstrumented; nil rows
	// no-op). Written once under mu by the first attach; a handler that
	// owns the session may read it without mu afterwards (its own attach
	// established the happens-before).
	health *obs.DeviceHealth
}

// NewCollector builds a receiver with default configuration. sink is
// invoked for every frame with the decompressed values (nil when decode
// fails or the codec is unknown — the frame itself still carries the
// payload). The values live exactly as long as the frame's Enc.Data: both
// are the connection's buffers, reused for its next frame once the sink
// returns, so copy to retain.
func NewCollector(reg *compress.Registry, sink func(Frame, []float64)) *Collector {
	return NewCollectorWith(reg, sink, CollectorConfig{})
}

// NewCollectorWith builds a receiver with explicit fleet configuration.
func NewCollectorWith(reg *compress.Registry, sink func(Frame, []float64), cfg CollectorConfig) *Collector {
	if sink == nil {
		sink = func(Frame, []float64) {}
	}
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:    cfg,
		reg:    reg,
		sink:   sink,
		wm:     cfg.Watermarks,
		shards: make([]*collectorShard, cfg.Shards),
		conns:  make(map[net.Conn]struct{}),
	}
	for i := range c.shards {
		c.shards[i] = &collectorShard{devices: make(map[uint64]*deviceState)}
	}
	return c
}

// shard maps a device ID to its shard. The ID is mixed through
// splitmix64 first so sequential fleet IDs spread across shards.
func (c *Collector) shard(deviceID uint64) *collectorShard {
	state := deviceID
	return c.shards[splitmix64(&state)&uint64(len(c.shards)-1)]
}

// Instrument attaches the observability substrate: delivery/redelivery
// counters, session/eviction counters, ACK-batch and shard-depth
// histograms, and one trace-ring event per received frame (Source
// "transport.collector"). Must be called before Serve; a nil observer is
// a no-op. Returns the collector for chaining.
func (c *Collector) Instrument(o *obs.Observer) *Collector {
	c.om = newCollectorMetrics(o)
	return c
}

// Serve listens on addr ("127.0.0.1:0" for an ephemeral test port) and
// accepts connections until Close. It returns the bound address. A
// collector serves at most one listener: calling Serve while serving or
// after Close is an error.
func (c *Collector) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	switch {
	case c.closed:
		c.mu.Unlock()
		_ = ln.Close()
		return nil, ErrCollectorClosed
	case c.ln != nil:
		c.mu.Unlock()
		_ = ln.Close()
		return nil, ErrCollectorServing
	}
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				_ = conn.Close()
				return
			}
			c.conns[conn] = struct{}{}
			c.mu.Unlock()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.handle(conn)
				c.mu.Lock()
				delete(c.conns, conn)
				c.mu.Unlock()
			}()
		}
	}()
	return ln.Addr(), nil
}

// connState is a connection's read and ACK state: br reads the
// connection, r frames what br reads, and bw buffers the ACKs. It comes
// from connStatePool and goes back when the connection's handler returns,
// so a redial allocates none of it. A handler owns its state until then: a
// kicked session that is still draining keeps its own, and the session
// that took over streams on another. The payload buffer the sink's frames
// alias and dec, the decode buffer its values alias, travel with it, which
// is why the sink may not keep them.
type connState struct {
	br  *bufio.Reader
	r   Reader
	bw  *bufio.Writer
	dec []float64
}

// connStatePool is a sync.Pool, not a bounded free list like the codecs'
// scratch: a state is held for a connection's whole life, and a fleet that
// redials all at once needs as many idle states as it has devices, not one
// per P.
var connStatePool = sync.Pool{New: func() any {
	s := &connState{br: bufio.NewReader(nil), bw: bufio.NewWriter(nil)}
	s.r.r = s.br
	return s
}}

func (c *Collector) handle(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	s := connStatePool.Get().(*connState)
	s.br.Reset(conn)
	s.bw.Reset(conn)
	s.r.reset()
	defer func() {
		// Let go of conn: the pool may keep s long after it closes.
		s.br.Reset(nil)
		s.bw.Reset(nil)
		connStatePool.Put(s)
	}()
	if _, err := s.br.Peek(1); err != nil {
		return // closed before its first byte: nothing was malformed
	}
	c.handleReliable(conn, s)
}

// attach takes single-writer ownership of deviceID for conn: it creates
// or revives the device session (seeding the watermark from the eviction
// table for returning devices), bumps the session generation, and kicks
// any stale connection. It returns the session and the generation this
// handler owns.
func (c *Collector) attach(deviceID uint64, conn net.Conn) (*deviceState, uint64) {
	sh := c.shard(deviceID)
	for {
		sh.mu.Lock()
		dev, resident := sh.devices[deviceID]
		if !resident {
			dev = &deviceState{}
			if c.wm != nil {
				if next, ok := c.wm.Load(deviceID); ok {
					dev.next = next
				}
			}
			sh.devices[deviceID] = dev
		}
		c.om.shardDepth(len(sh.devices))
		// The shard lock is dropped before waiting on the device: the
		// stale session may be mid-sink under dev.mu, and holding sh.mu
		// across that wait would stall attach/detach for every unrelated
		// device in the shard. The map entry keeps dev pinned. Waiting on
		// dev.mu is still what guarantees the old session's in-flight
		// sink call completes before the new session's first one.
		sh.mu.Unlock()
		dev.mu.Lock()
		if dev.evicted {
			// Lost a race with an evicting detach: the watermark is
			// already in the table, but the dead struct may still shadow
			// it in the map. Clear it (detach's delete is identity-checked
			// too, so whoever gets there first wins) and start over from
			// the table.
			dev.mu.Unlock()
			sh.mu.Lock()
			if sh.devices[deviceID] == dev {
				delete(sh.devices, deviceID)
			}
			sh.mu.Unlock()
			continue
		}
		if dev.idle {
			dev.idle = false
			c.idle.Add(-1)
		}
		if dev.health == nil {
			dev.health = c.om.device(deviceID)
		}
		dev.health.SetWatermark(dev.next)
		stale := dev.conn
		dev.gen++
		gen := dev.gen
		dev.conn = conn
		health := dev.health
		dev.mu.Unlock()
		if stale != nil {
			_ = stale.Close()
			c.kicked.Add(1)
			c.om.sessionKicked()
			health.NoteKick()
		}
		return dev, gen
	}
}

// detach releases a handler's session ownership. If a newer session has
// already kicked this one, detach is a no-op; otherwise the device goes
// idle and, past the idle bound, is evicted down to its watermark.
func (c *Collector) detach(deviceID uint64, dev *deviceState, gen uint64) {
	dev.mu.Lock()
	if dev.gen != gen {
		dev.mu.Unlock()
		return
	}
	dev.conn = nil
	// Strict idle bound: the compare and the increment must be one
	// atomic step, or concurrent detaches could all pass the check and
	// leave resident idle devices above the configured bound.
	evict := false
	if c.cfg.MaxIdleDevices > 0 {
		for {
			n := c.idle.Load()
			if n >= int64(c.cfg.MaxIdleDevices) {
				evict = true
				break
			}
			if c.idle.CompareAndSwap(n, n+1) {
				break
			}
		}
	} else {
		c.idle.Add(1)
	}
	dev.idle = !evict
	if c.wm != nil {
		// The watermark goes into the table before the map entry can be
		// observed gone: evicted is set in this same critical section,
		// and the map delete (here or in attach's cleanup) happens only
		// after evicted was observed under dev.mu. A device reconnecting
		// mid-eviction therefore always finds the resident session or
		// the table entry — never neither, which would seed next=0 and
		// redeliver everything already delivered.
		c.wm.Store(deviceID, dev.next)
	}
	if evict {
		dev.evicted = true
	}
	health := dev.health
	dev.mu.Unlock()
	if !evict {
		return
	}
	health.NoteEviction()
	sh := c.shard(deviceID)
	sh.mu.Lock()
	// attach may have cleared the dead struct already (and replaced it
	// with a revived session); only ever remove our own.
	if sh.devices[deviceID] == dev {
		delete(sh.devices, deviceID)
	}
	depth := len(sh.devices)
	sh.mu.Unlock()
	c.evictions.Add(1)
	c.om.eviction()
	c.om.shardDepth(depth)
}

// handleReliable is the hello/ACK path: per-device dedup with serialized,
// ID-ordered sink calls and coalesced cumulative ACKs.
func (c *Collector) handleReliable(conn net.Conn, s *connState) {
	h, err := readHello(s.br)
	if err != nil {
		c.om.badConn()
		return
	}
	ackEvery := min(h.ackEvery, maxAckEvery)
	if ackEvery == 0 {
		ackEvery = DefaultAckEvery
	}
	dev, gen := c.attach(h.deviceID, conn)
	defer c.detach(h.deviceID, dev, gen)
	var pending uint64 // frames received since the last ACK
	var ackBroken bool // an ACK write failed: deliver what still arrives, acknowledge nothing
	for {
		frame, err := s.r.Recv()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			// A kicked session's connection is closed under it mid-read;
			// that is a clean takeover, not a protocol violation. Nor is
			// the read error that follows a failed ACK write: the
			// connection was already known dead.
			dev.mu.Lock()
			stale := dev.gen != gen
			dev.mu.Unlock()
			if !stale && !ackBroken {
				c.om.badConn()
			}
			return
		}
		if frame.ID == math.MaxUint64 {
			// A MaxUint64 ID would wrap the cumulative watermark
			// (next = ID+1 = 0), silently re-opening every past ID for
			// redelivery. No legitimate device reaches 2^64-1 segments;
			// reject the frame and drop the connection.
			c.om.badConn()
			return
		}
		dev.mu.Lock()
		if dev.gen != gen {
			// Kicked: a newer session owns this device. Stop without
			// delivering or acking; the new session will see the
			// retransmit and dedup it against the shared watermark.
			dev.mu.Unlock()
			return
		}
		deliver := frame.ID >= dev.next
		if deliver {
			// Decode only frames the watermark admits: a reconnect storm
			// retransmits everything unacknowledged in bulk, and paying
			// full decompression for duplicates the very next line drops
			// would make the herd redial even more expensive. The decode
			// shares dev.mu with the sink call, which already serializes
			// this device's deliveries.
			values := c.decode(s, frame)
			// The spool resends in ID order, so IDs at the watermark (or
			// above it, if the device shed segments) advance it; anything
			// below is a redelivery.
			dev.next = frame.ID + 1
			c.frames.Add(1)
			dev.health.NoteDelivery()
			dev.health.SetWatermark(dev.next)
			// The sink runs under dev.mu: this is the single-writer
			// guarantee that per-device sink calls are serialized and
			// ID-ordered even if a zombie connection lingers. Counters and
			// the trace event stay inside the critical section too, so the
			// per-device event order in the ring matches delivery order.
			c.sink(frame, values)
		} else {
			c.duplicates.Add(1)
			dev.health.NoteRedelivery()
		}
		c.om.frame(h.deviceID, frame.ID, frame.Trace, deliver)
		ackNext := dev.next
		// Capture under dev.mu: a concurrent reattach writes dev.health
		// while this (possibly kicked) session is still draining its read
		// side, so the field itself must not be touched after the unlock.
		health := dev.health
		dev.mu.Unlock()
		pending++
		// Ack every ackEvery frames, and as soon as the read side goes
		// idle, so the tail of a burst is never left waiting and the lone
		// frame that opens a session is answered with the watermark it
		// resumes from (wire.go: the device sends nothing until it is).
		if ackBroken || pending < ackEvery && s.br.Buffered() > 0 {
			continue
		}
		_ = conn.SetWriteDeadline(time.Now().Add(ackWriteTimeout))
		err = writeAck(s.bw, ackNext)
		if err == nil {
			err = s.bw.Flush()
		}
		if err != nil {
			// The device is gone (a reset, typically: it closed on a write
			// fault with our ACKs unread) but what it wrote before that is
			// still in our buffers, whole frames of a burst among it. Keep
			// delivering until the read side ends too: the device's next
			// session learns the watermark from its first ACK, so each
			// frame delivered now is one it does not send again.
			ackBroken = true
			continue
		}
		c.om.ackBatch(pending)
		health.NoteAckBatch(pending)
		pending = 0
	}
}

// decode decompresses a frame into the connection's decode buffer, which
// grows to the largest segment the connection has carried, so the
// collector's per-frame path does not allocate per decode (DESIGN.md §10).
// It returns nil when there is no registry or the frame does not decode.
func (c *Collector) decode(s *connState, frame Frame) []float64 {
	if c.reg == nil {
		return nil
	}
	out, err := c.reg.DecompressInto(s.dec[:0], frame.Enc)
	if err != nil {
		return nil
	}
	s.dec = out
	return out
}

// Frames returns the number of frames delivered to the sink so far
// (duplicates excluded).
func (c *Collector) Frames() int { return int(c.frames.Load()) }

// Duplicates returns the number of redelivered frames dropped by the
// per-device watermark.
func (c *Collector) Duplicates() int { return int(c.duplicates.Load()) }

// Kicked returns the number of stale sessions displaced by a newer
// connection for the same device.
func (c *Collector) Kicked() int { return int(c.kicked.Load()) }

// Evictions returns the number of idle devices evicted down to the
// watermark table.
func (c *Collector) Evictions() int { return int(c.evictions.Load()) }

// ResidentDevices returns the number of devices with full session state
// in memory (idle or connected); evicted devices are excluded.
func (c *Collector) ResidentDevices() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.devices)
		sh.mu.Unlock()
	}
	return n
}

// Watermarks returns the eviction watermark table (nil when eviction is
// disabled and no table was configured). Serialize it with WriteTo to
// carry dedup state across a collector restart.
func (c *Collector) Watermarks() *store.Watermarks { return c.wm }

// Close stops accepting, closes live connections, and waits for handlers.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, conn := range conns {
		_ = conn.Close()
	}
	c.wg.Wait()
	if c.wm != nil {
		// Fold every resident watermark into the table so a restart
		// carrying the serialized table never re-delivers.
		for _, sh := range c.shards {
			sh.mu.Lock()
			for id, dev := range sh.devices {
				dev.mu.Lock()
				c.wm.Store(id, dev.next)
				dev.mu.Unlock()
			}
			sh.mu.Unlock()
		}
	}
	return err
}
