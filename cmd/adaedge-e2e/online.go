package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
)

// Frozen load shape. Changing any of these changes what the numbers mean;
// the result header stamps them so two outputs can be checked for
// comparability.
const (
	segmentLen     = 128  // points per segment
	poolSegments   = 4096 // generated inputs, cycled
	warmupSegments = 4096 // sent through the whole path before any timing; the first of them inside set-up
	spoolSegments  = 1024 // ResilientConfig.SpoolSegments
	pipelineCap    = 512  // in flight, pipelined phase: half the spool, so Send never sees ErrSpoolFull
	flakyCap       = 64   // in flight on wire_flaky: a wider window spends the link's up-time on replays
	lockstepCap    = 1    // in flight, lockstep phase
	stampRing      = 1 << 16
	verifyStride   = 61      // every 61st frame gets the reference-decode check; prime, so it aliases with neither the pool nor the codec cycle
	verifySamples  = 1 << 16 // reference checks kept per run; at the stride, 4 M segments
	maxSegmentIDs  = 1 << 25 // capacity of the exactly-once bitmap
	drainTimeout   = 30 * time.Second
	spoolFullWait  = 50 * time.Microsecond // between looks at a full spool; a fraction of the time its 1 024 frames take to ACK
	pipelinedShare = 0.6                   // of -seconds; the lockstep phase gets the rest
)

// sliceLen is how many deliveries make one throughput slice and one
// latency chunk: two passes over the pool, so every slice sees the same
// inputs (on edge_shift, the same share of each regime). A variable so
// the smoke test can use short phases.
var sliceLen = 2 * poolSegments

// verifyArena is how many bytes of emitted frames a run keeps for the
// reference check: verifySamples of wire_replay's 414-byte average and a
// fifth more. A variable so the test can fill it.
var verifyArena = 32 << 20

// corruptSinkAt, when set by the test, makes the sink flip one delivered
// value of that frame before checking it: proof that the checks bite.
var corruptSinkAt int64 = -1

// wireCounters count what crosses the device's socket, so framing, ACKs
// and retransmissions are all in out_bytes_per_raw_byte.
type wireCounters struct {
	written, read, writes, reads atomic.Int64
}

type wireSnapshot struct{ written, read, writes, reads int64 }

func (w *wireCounters) snapshot() wireSnapshot {
	return wireSnapshot{w.written.Load(), w.read.Load(), w.writes.Load(), w.reads.Load()}
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.written.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.read.Add(int64(n))
	c.c.reads.Add(1)
	return n, err
}

// eventLog folds the uplink's delivery trace (traced runs only) into
// outage recovery times and time spent backing off.
type eventLog struct {
	mu         sync.Mutex
	failAt     int64
	recoveries []int64
	backoffNs  int64
}

func (l *eventLog) on(e transport.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch e.Kind {
	case "send-fail", "ack-fail", "dial-fail":
		if l.failAt == 0 {
			l.failAt = now()
		}
	case "dial":
		if l.failAt != 0 {
			l.recoveries = append(l.recoveries, now()-l.failAt)
			l.failAt = 0
		}
	case "backoff":
		l.backoffNs += int64(e.Wait)
	}
}

func (l *eventLog) snapshot() (recoveries int, backoffNs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recoveries), l.backoffNs
}

// stamp is one in-flight segment's timeline. The device writes handoff,
// processed, sent and depth; the sink writes sinkIn and sinkOut. Only
// handoff is read across goroutines while the segment is in flight.
type stamp struct {
	handoff         atomic.Int64
	processed, sent int64
	sinkIn, sinkOut int64
	depth           int32
}

// onlineSpec is what distinguishes the four online workloads.
type onlineSpec struct {
	// pool generates the inputs from the seed.
	pool func(seed int64) ([][]float64, []int)
	// engine builds the online engine's configuration; nil bypasses the
	// engine and sends the pool pre-encoded.
	engine func(o *online) (core.Config, error)
	// flaky routes the connection through a seeded fault plan.
	flaky bool
	// pipeCap is the in-flight cap of the pipelined phase.
	pipeCap int
	// tailFromPipelined takes deliver_p99 from the pipelined phase, not
	// from the lockstep one: one in flight at a time, an outage touches
	// one frame in ~500 and the 99th percentile never sees it; with a
	// window in flight it is the outage recovery time.
	tailFromPipelined bool
}

// online drives engine → ResilientUplink → loopback TCP → Collector →
// decode → sink for one device in one process.
type online struct {
	spec  *onlineSpec
	seed  int64
	trace bool

	reg      *compress.Registry
	codecs   []string // registry names; emittedRef.codec indexes it
	lossless map[string]bool
	pool     [][]float64
	labels   []int
	frames   []compress.Encoded // pre-encoded pool when the engine is bypassed
	target   float64            // the engine's target ratio
	// What the engine configuration uses, so the kernel replays cover it.
	model           ml.Classifier
	contextual, agg bool

	engine *core.OnlineEngine
	coll   *transport.Collector
	up     *transport.ResilientUplink
	wire   wireCounters
	plan   *sim.FaultPlan
	events *eventLog

	baseHeap uint64 // live heap after prepare, before the input pool and the system under test

	sem    chan struct{} // in-flight tokens: the device puts one in per hand-off, the sink takes one out per delivery
	stamps []stamp
	rec    atomic.Pointer[recorder]
	nextID uint64

	// Device-side bookkeeping.
	prevCodec string
	switches  int64
	rewardSum float64
	payload   int64        // Σ Enc.Size() handed to Send
	arena     []byte       // copies of the bytes the device emitted, for every verifyStride-th frame
	emitted   []emittedRef // emitted[k] is frame k*verifyStride
	unsampled bool         // the tables above are full: later frames get the per-delivery checks only

	// Sink-side bookkeeping.
	seen      []uint64 // exactly-once bitmap by frame ID
	dupes     int64
	bad       int64
	gotValues []uint64 // hash of the delivered values, by ID/verifyStride
	gotBytes  []uint64 // hash of the delivered payload bytes
	firstBad  string

	spans *spanLog
}

// emittedRef locates one sampled frame's emitted bytes in the arena. It
// holds no pointers, so the collector does not scan the table.
type emittedRef struct {
	off, n, points int32
	codec          int32 // index into online.codecs
}

// prepare allocates what the harness keeps its books in and takes the
// live-heap baseline that sets them apart from the system's memory.
func (o *online) prepare() {
	o.sem = make(chan struct{}, pipelineCap)
	o.stamps = make([]stamp, stampRing)
	o.seen = make([]uint64, maxSegmentIDs/64)
	o.gotValues = make([]uint64, verifySamples)
	o.gotBytes = make([]uint64, verifySamples)
	o.emitted = make([]emittedRef, 0, verifySamples)
	o.arena = make([]byte, 0, verifyArena)
	if o.trace {
		o.events = &eventLog{recoveries: make([]int64, 0, 1<<16)}
	}
	o.rec.Store(newRecorder(sliceLen, false))
	o.baseHeap = liveHeap()
}

// setup generates the inputs, builds engine, collector and uplink, and
// sends the first segment through them.
func (o *online) setup() (err error) {
	o.reg = compress.DefaultRegistry(4)
	o.codecs = o.reg.Names()
	o.lossless = make(map[string]bool)
	for _, name := range o.reg.Lossless() {
		o.lossless[name] = true
	}
	o.pool, o.labels = o.spec.pool(o.seed)
	if len(o.pool) != poolSegments {
		return fmt.Errorf("pool has %d segments, want %d", len(o.pool), poolSegments)
	}
	if o.spec.engine == nil {
		if o.frames, err = preEncode(o.reg, o.pool); err != nil {
			return err
		}
	} else {
		cfg, err := o.spec.engine(o)
		if err != nil {
			return err
		}
		o.target = cfg.TargetRatioOverride
		if o.engine, err = core.NewOnlineEngine(cfg); err != nil {
			return err
		}
	}
	o.coll = transport.NewCollector(o.reg, o.sink)
	addr, err := o.coll.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	rc := transport.ResilientConfig{
		Addr:          addr.String(),
		DeviceID:      1,
		Protocol:      2,
		Seed:          o.seed,
		SpoolSegments: spoolSegments,
		Dialer:        o.dial,
	}
	if o.spec.flaky {
		// 0.6 virtual seconds up, 0.25 down, metered at 400 kB per
		// virtual second: an outage every ~500 frames. The seed moves
		// where in the up phase the run starts.
		link := sim.NewLink(
			sim.LinkPhase{Seconds: 0.6, Bandwidth: sim.Net4G},
			sim.LinkPhase{Seconds: 0.25, Bandwidth: 0},
		)
		// The outage is in virtual time, which only bytes and dial attempts
		// advance. A failed dial costs 0.125 virtual seconds, so an outage
		// is one failed dial and one backoff, then the replay. Cheaper dials
		// and longer backoffs add dial attempts and idle waiting and nothing
		// else to the path, and an idle process pays the sandbox's wake-up
		// cost, the least steady thing it has: at 0.03 s a dial (8 dials an
		// outage, a third of the wall time asleep) CPU per segment read
		// 17-40 µs over ten runs where this setting read 15-20 µs.
		o.plan = sim.NewFaultPlan(link.Shifted(float64(o.seed%12)*0.05), 400_000, 0.125)
		rc.BackoffBase = 250 * time.Microsecond
		rc.BackoffMax = 2 * time.Millisecond
	}
	if o.events != nil {
		rc.OnEvent = o.events.on
	}
	if o.up, err = transport.DialResilient(rc); err != nil {
		return err
	}
	return o.send(1)
}

func (o *online) warm() error { return o.send(warmupSegments - 1) }

// send hands n segments to the path, as many in flight as the pipelined
// phase allows, and drains.
func (o *online) send(n int) error {
	if err := o.hold(pipelineCap - o.spec.pipeCap); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := o.step(); err != nil {
			return err
		}
	}
	return o.drain(o.spec.pipeCap)
}

func (o *online) dial(addr string, timeout time.Duration) (net.Conn, error) {
	raw := func() (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, c: &o.wire}, nil
	}
	if o.plan != nil {
		return o.plan.Dial(raw)
	}
	return raw()
}

func (o *online) close() {
	if o.up != nil {
		_ = o.up.Close()
	}
	if o.coll != nil {
		_ = o.coll.Close()
	}
}

// wireCodecs is the codec cycle of the pre-encoded pool: four lossless
// bit-kernel codecs, four lossy ones.
var wireCodecs = []string{"gorilla", "chimp", "sprintz", "buff", "paa", "pla", "fft", "lttb"}

const wireLossyRatio = 0.15

func preEncode(reg *compress.Registry, pool [][]float64) ([]compress.Encoded, error) {
	out := make([]compress.Encoded, len(pool))
	for i, seg := range pool {
		name := wireCodecs[i%len(wireCodecs)]
		c, ok := reg.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("codec %q not in the registry", name)
		}
		var err error
		if out[i], err = encodeWith(c, nil, seg, wireLossyRatio); err != nil {
			return nil, fmt.Errorf("pre-encoding segment %d with %s: %w", i, name, err)
		}
	}
	return out, nil
}

// hold takes n in-flight tokens out of circulation, which is how one
// channel serves every cap.
func (o *online) hold(n int) error {
	t := time.NewTimer(drainTimeout)
	defer t.Stop()
	for i := 0; i < n; i++ {
		select {
		case o.sem <- struct{}{}:
		case <-t.C:
			return errors.New("segments still in flight after the drain timeout: a frame was lost")
		}
	}
	return nil
}

// drain waits until nothing is in flight and every frame is ACKed, then
// frees all tokens. inUse is the cap the phase ran with.
func (o *online) drain(inUse int) error {
	if err := o.hold(inUse); err != nil {
		return err
	}
	for i := 0; i < pipelineCap; i++ {
		<-o.sem
	}
	return o.up.WaitDrain(drainTimeout)
}

// step hands one segment to the path: Process (unless bypassed), then
// Send, synchronously, as examples/edge-to-cloud does.
func (o *online) step() error {
	id := o.nextID
	if id >= maxSegmentIDs {
		return fmt.Errorf("segment %d is beyond the exactly-once bitmap", id)
	}
	stamped := o.rec.Load().traced(id)
	o.sem <- struct{}{}
	o.nextID++
	idx := id % poolSegments
	st := &o.stamps[id&(stampRing-1)]
	st.handoff.Store(now())

	var enc compress.Encoded
	if o.engine != nil {
		res, e, err := o.engine.Process(o.pool[idx], o.labels[idx])
		if err != nil {
			return fmt.Errorf("Process segment %d: %w", id, err)
		}
		if res.SegmentID != id {
			return fmt.Errorf("engine numbered segment %d as %d", id, res.SegmentID)
		}
		if res.Codec != o.prevCodec {
			o.switches++
			o.prevCodec = res.Codec
		}
		o.rewardSum += res.Reward
		enc = e
	} else {
		enc = o.frames[idx]
	}
	if stamped {
		st.processed = now()
	}
	if id%verifyStride == 0 && !o.unsampled {
		if len(o.emitted) == cap(o.emitted) || len(o.arena)+len(enc.Data) > cap(o.arena) {
			// For good: a smaller frame that still fitted would take this
			// one's index.
			o.unsampled = true
		} else {
			o.emitted = append(o.emitted, emittedRef{int32(len(o.arena)), int32(len(enc.Data)), int32(enc.N), o.codecIndex(enc.Codec)})
			o.arena = append(o.arena, enc.Data...)
		}
	}
	o.payload += int64(len(enc.Data))
	frame := transport.Frame{ID: id, Label: o.labels[idx], Enc: enc}
	err := o.up.Send(frame)
	if errors.Is(err, store.ErrSpoolFull) {
		// The in-flight cap bounds what the sink has not seen; the spool
		// also holds what is delivered but not yet ACKed, and on a busy
		// machine the uplink's ACK reader can fall a spool behind. A
		// device that may not shed waits, asleep so the reader it waits
		// for gets the core; store.spool_rejects counts it.
		for deadline := now() + int64(drainTimeout); errors.Is(err, store.ErrSpoolFull) && now() < deadline; {
			if o.up.Pending() >= spoolSegments {
				time.Sleep(spoolFullWait)
				continue
			}
			err = o.up.Send(frame)
		}
	}
	if err != nil {
		return fmt.Errorf("Send segment %d: %w", id, err)
	}
	if stamped {
		st.sent = now()
		st.depth = int32(o.up.Pending())
	}
	return nil
}

func (o *online) codecIndex(name string) int32 {
	for i, c := range o.codecs {
		if c == name {
			return int32(i)
		}
	}
	return -1
}

// sink is the collector's delivery callback: the segment is durable at
// its destination when it returns.
func (o *online) sink(f transport.Frame, values []float64) {
	r := o.rec.Load()
	stamped := r.traced(f.ID)
	var in int64
	if stamped {
		in = now()
	}
	if f.ID >= maxSegmentIDs {
		o.fail("frame ID %d beyond the bitmap", f.ID)
		return
	}
	word, bit := f.ID>>6, uint64(1)<<(f.ID&63)
	if o.seen[word]&bit != 0 {
		// The collector's watermark should have absorbed it. No token is
		// released: the first delivery already did.
		o.dupes++
		return
	}
	o.seen[word] |= bit
	if int64(f.ID) == corruptSinkAt && len(values) > 0 {
		values[0] += 1
	}
	o.check(f, values)
	st := &o.stamps[f.ID&(stampRing-1)]
	out := now()
	if stamped {
		st.sinkIn, st.sinkOut = in, out
	}
	r.deliver(out-st.handoff.Load(), out)
	<-o.sem
}

func (o *online) fail(format string, args ...any) {
	o.bad++
	if o.firstBad == "" {
		o.firstBad = fmt.Sprintf(format, args...)
	}
}

// check is the per-delivery part of verification: the right number of
// points, lossless frames bit-equal to their input, and for every
// verifyStride-th frame a fingerprint for the reference check in finish.
func (o *online) check(f transport.Frame, values []float64) {
	src := o.pool[f.ID%poolSegments]
	if len(values) != f.Enc.N || len(values) != len(src) {
		o.fail("frame %d (%s): %d values for N=%d", f.ID, f.Enc.Codec, len(values), f.Enc.N)
		return
	}
	if o.lossless[f.Enc.Codec] {
		for i, v := range values {
			// Equal as values, not as bits: buff decodes -0 as 0.
			if v != src[i] {
				o.fail("frame %d (%s): lossless value %d is %v, want %v", f.ID, f.Enc.Codec, i, v, src[i])
				return
			}
		}
	}
	if f.ID%verifyStride == 0 {
		if k := f.ID / verifyStride; k < verifySamples {
			o.gotValues[k] = hashValues(values)
			o.gotBytes[k] = hashBytes(f.Enc.Data)
		}
	}
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func hashValues(v []float64) uint64 {
	h := uint64(fnvOffset)
	for _, x := range v {
		h = (h ^ math.Float64bits(x)) * fnvPrime
	}
	return h
}

func hashBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, x := range b {
		h = (h ^ uint64(x)) * fnvPrime
	}
	return h
}

// finish closes verification once the run has drained: every attempted
// ID delivered exactly once, and every sampled frame's delivered bytes
// and values equal to the bytes the device emitted and their reference
// Registry.Decompress. It returns attempted and failed.
func (o *online) finish() (attempted, failed int64, detail string) {
	attempted = int64(o.nextID)
	var present int64
	for _, w := range o.seen {
		present += int64(bits.OnesCount64(w))
	}
	missing := attempted - present
	for k, ref := range o.emitted {
		id := uint64(k) * verifyStride
		if o.seen[id>>6]&(1<<(id&63)) == 0 {
			continue // already counted as missing
		}
		if ref.codec < 0 {
			o.fail("frame %d: emitted with a codec the registry does not have", id)
			continue
		}
		codec, data := o.codecs[ref.codec], o.arena[ref.off:ref.off+ref.n]
		if hashBytes(data) != o.gotBytes[k] {
			o.fail("frame %d (%s): delivered bytes differ from the bytes the device emitted", id, codec)
			continue
		}
		want, err := o.reg.Decompress(compress.Encoded{Codec: codec, Data: data, N: int(ref.points)})
		if err != nil {
			o.fail("frame %d (%s): reference decode: %v", id, codec, err)
			continue
		}
		if hashValues(want) != o.gotValues[k] {
			o.fail("frame %d (%s): delivered values differ from the reference decode", id, codec)
		}
	}
	failed = missing + o.dupes + o.bad
	switch {
	case o.firstBad != "":
		detail = o.firstBad
	case missing > 0:
		detail = fmt.Sprintf("%d segments never reached the sink", missing)
	case o.dupes > 0:
		detail = fmt.Sprintf("%d segments reached the sink twice", o.dupes)
	}
	return attempted, failed, detail
}

// phaseResult is everything read at the two boundaries of a timed phase.
type phaseResult struct {
	rec          *recorder
	end          mark
	wallNs       int64
	heap0, heap1 heapSnapshot
	wire         wireSnapshot // deltas
	payload      int64
	uplink       transport.UplinkStats
	dups, kicked int
	rejects      int
	recoveries   []int64
	backoffNs    int64
	p50, p99     float64
	samples      int
	layers       *layerTimes
}

// phase runs the device loop for d with at most inFlight segments between
// hand-off and delivery, and drains.
func (o *online) phase(inFlight int, d time.Duration, keepLatency bool) (*phaseResult, error) {
	if err := o.hold(pipelineCap - inFlight); err != nil {
		return nil, err
	}
	r := newRecorder(sliceLen, keepLatency)
	r.trace, r.firstID = o.trace, o.nextID
	res := &phaseResult{rec: r, payload: -o.payload}
	w0, u0 := o.wire.snapshot(), o.up.Stats()
	d0, k0 := o.coll.Duplicates(), o.coll.Kicked()
	var rec0 int
	var back0 int64
	if o.events != nil {
		rec0, back0 = o.events.snapshot()
	}
	res.heap0 = readHeap()
	o.rec.Store(r)
	r.start()
	deadline := r.marks[0].wall + int64(d)
	for now() < deadline {
		if err := o.step(); err != nil {
			return nil, err
		}
	}
	if err := o.drain(inFlight); err != nil {
		return nil, err
	}
	res.end = markNow(now())
	res.wallNs = res.end.wall - r.marks[0].wall
	res.heap1 = readHeap()
	res.payload += o.payload
	w1, u1 := o.wire.snapshot(), o.up.Stats()
	res.wire = wireSnapshot{w1.written - w0.written, w1.read - w0.read, w1.writes - w0.writes, w1.reads - w0.reads}
	res.uplink = transport.UplinkStats{
		FramesSent:   u1.FramesSent - u0.FramesSent,
		Dials:        u1.Dials - u0.Dials,
		DialFailures: u1.DialFailures - u0.DialFailures,
		SendFailures: u1.SendFailures - u0.SendFailures,
		AckFailures:  u1.AckFailures - u0.AckFailures,
	}
	res.rejects = u1.Dropped - u0.Dropped
	res.dups, res.kicked = o.coll.Duplicates()-d0, o.coll.Kicked()-k0
	if o.events != nil {
		rec1, back1 := o.events.snapshot()
		res.recoveries = append([]int64(nil), o.events.recoveries[rec0:rec1]...)
		res.backoffNs = back1 - back0
	}
	if keepLatency {
		res.samples = len(r.lat)
		res.p50 = chunkP50(r.lat, sliceLen)
		res.p99 = chunkP99(r.lat)
		r.lat = nil
	}
	if o.trace {
		if res.layers = o.collect(r, o.nextID); len(res.layers.root) == 0 {
			return nil, errors.New("the phase ended before its first traced slice")
		}
	}
	return res, nil
}

// run measures for the given number of seconds and reports.
func (o *online) run(seconds float64) (*report, error) {
	rep := newReport(o.trace)
	total := time.Duration(seconds * float64(time.Second))
	pipeD := time.Duration(pipelinedShare * float64(total))
	lockD := total - pipeD

	pipe, err := o.phase(o.spec.pipeCap, pipeD, o.spec.tailFromPipelined)
	if err != nil {
		return nil, err
	}
	var live uint64
	var accuracy float64 = 1
	var engStats core.OnlineStats
	if o.engine != nil {
		engStats = o.engine.Stats()
		accuracy = 1 - engStats.MeanAccuracyLoss()
	}
	if !o.trace {
		live = liveHeap()
	}
	latency, err := o.phase(lockstepCap, lockD, true)
	if err != nil {
		return nil, err
	}
	tail := latency
	if o.spec.tailFromPipelined {
		tail = pipe
	}

	var detail string
	rep.attempted, rep.failed, detail = o.finish()
	if detail != "" {
		rep.notes = append(rep.notes, "FAILED: "+detail)
	}

	delivered := float64(pipe.rec.n)
	if delivered == 0 {
		return nil, errors.New("the pipelined phase delivered nothing")
	}
	thr, cpu, allocs, slices := pipe.rec.rates(pipe.end)
	rep.e2e["out_bytes_per_raw_byte"] = float64(pipe.wire.written+pipe.wire.read) / (delivered * segmentLen * 8)
	rep.e2e["task_accuracy"] = accuracy
	rep.e2e["allocs_per_segment"] = allocs
	rep.e2e["live_heap_mb"] = (float64(live) - float64(o.baseHeap)) / 1e6
	rep.notes = append(rep.notes,
		fmt.Sprintf("pipelined: %d segments in %.2fs, %d slices of %d", pipe.rec.n, float64(pipe.wallNs)/1e9, slices, sliceLen),
		fmt.Sprintf("latency: %d samples for the median (%d not kept), %d for the tail (%d not kept)",
			latency.samples, latency.rec.dropped, tail.samples, tail.rec.dropped),
		fmt.Sprintf("checked: %d segments exactly once, %d of them against a reference decode", rep.attempted, len(o.emitted)))

	if o.engine != nil {
		rep.notes = append(rep.notes, "codec mix at the end of the pipelined phase: "+mixString(engStats.CodecUse))
	}
	if o.trace {
		o.layerMetrics(rep.layer, pipe, latency, engStats)
	}
	rep.path(thr, cpu, latency.p50, tail.p99)
	return rep, nil
}

// mixString lists codecs by share of segments, largest first.
func mixString(use map[string]int) string {
	mix := normalize(use)
	names := make([]string, 0, len(mix))
	for name := range mix {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if mix[names[i]] != mix[names[j]] {
			return mix[names[i]] > mix[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %.3f  ", name, mix[name])
	}
	return strings.TrimSpace(b.String())
}
