package main

import (
	"math"
	"sort"

	"repro/internal/core"
)

// layerTimes are the per-segment stage durations of one traced phase,
// for the traced ones of its last stampRing segments.
type layerTimes struct {
	process, send, flight, sink, root []int64
	depth                             []int64
}

// collect reads the stamp ring for the traced segments of phase r, which
// ended before segment end, and, when a span file was asked for, keeps
// the spans of the last of them.
func (o *online) collect(r *recorder, end uint64) *layerTimes {
	first := r.firstID
	if end-first > stampRing {
		first = end - stampRing
	}
	ids := make([]uint64, 0, end-first)
	for id := first; id < end; id++ {
		if r.traced(id) {
			ids = append(ids, id)
		}
	}
	n := len(ids)
	lt := &layerTimes{
		process: make([]int64, 0, n), send: make([]int64, 0, n), flight: make([]int64, 0, n),
		sink: make([]int64, 0, n), root: make([]int64, 0, n), depth: make([]int64, 0, n),
	}
	for i, id := range ids {
		st := &o.stamps[id&(stampRing-1)]
		t0 := st.handoff.Load()
		lt.process = append(lt.process, st.processed-t0)
		lt.send = append(lt.send, st.sent-st.processed)
		// Send can return after the sink has already run (the pump is
		// another goroutine); the flight then has no extent of its own.
		lt.flight = append(lt.flight, max(st.sinkIn-st.sent, 0))
		lt.sink = append(lt.sink, st.sinkOut-st.sinkIn)
		lt.root = append(lt.root, st.sinkOut-t0)
		lt.depth = append(lt.depth, int64(st.depth))
		if n-i <= spanFileSegments {
			root := o.spans.add("segment", 0, id, t0, st.sinkOut)
			if o.engine != nil {
				o.spans.add("core.process", root, id, t0, st.processed)
			}
			o.spans.add("transport.send", root, id, st.processed, st.sent)
			o.spans.add("transport.flight", root, id, st.sent, max(st.sinkIn, st.sent))
			o.spans.add("bench.sink", root, id, st.sinkIn, st.sinkOut)
		}
	}
	return lt
}

func sum(v []int64) (s float64) {
	for _, x := range v {
		s += float64(x)
	}
	return s
}

// p50 sorts v in place and returns its median.
func p50(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(v[len(v)/2])
}

func p50us(v []int64) float64 { return p50(v) / 1e3 }

// layerMetrics fills the per-layer metrics of a traced run from its
// pipelined and its lockstep phase.
func (o *online) layerMetrics(m readings, pipe, lat *phaseResult, eng core.OnlineStats) {
	l := lat.layers
	root := sum(l.root)
	if o.engine != nil {
		m["core.process_share"] = sum(l.process) / root
		m["core.process_p50_us"] = p50us(l.process)
		m["core.lossless_share"] = float64(eng.LosslessSegments) / float64(eng.Segments)
		m["core.codec_switches_per_1k"] = 1000 * float64(o.switches) / float64(o.nextID)
		m["core.distinct_codecs"] = float64(len(eng.CodecUse))
		m["core.mean_reward"] = o.rewardSum / float64(o.nextID)
	}
	m["transport.flight_share"] = sum(l.flight) / root
	// Whatever of the root no child covers. The four children tile it
	// except where a late Send return overlaps the flight.
	covered := sum(l.send) + sum(l.flight) + sum(l.sink)
	if o.engine != nil {
		covered += sum(l.process)
	}
	m["bench.root_self_share"] = math.Max(0, root-covered) / root
	m["transport.send_p50_us"] = p50us(l.send)
	m["transport.flight_p50_us"] = p50us(l.flight)
	m["transport.flight_pipelined_p50_us"] = p50us(pipe.layers.flight)
	m["bench.sink_us"] = p50us(l.sink)

	delivered := float64(pipe.rec.n)
	sent := float64(pipe.uplink.FramesSent)
	if sent > 0 {
		m["transport.socket_writes_per_frame"] = float64(pipe.wire.writes) / sent
		m["transport.socket_reads_per_frame"] = float64(pipe.wire.reads) / sent
		m["transport.ack_bytes_per_frame"] = float64(pipe.wire.read) / sent
		socket := float64(pipe.wire.written + pipe.wire.read)
		m["transport.wire_overhead_share"] = (socket - float64(pipe.payload)) / socket
	}
	m["transport.frames_sent_per_segment"] = sent / delivered
	m["transport.redelivered_share"] = float64(pipe.dups) / delivered
	m["transport.dials"] = float64(pipe.uplink.Dials)
	m["transport.dial_failures"] = float64(pipe.uplink.DialFailures)
	m["transport.send_failures"] = float64(pipe.uplink.SendFailures)
	m["transport.ack_failures"] = float64(pipe.uplink.AckFailures)
	m["transport.sessions_kicked"] = float64(pipe.kicked)
	if len(pipe.recoveries) > 0 {
		m["transport.recovery_p50_ms"] = p50us(pipe.recoveries) / 1e3
	}
	m["transport.backoff_sleep_share"] = float64(pipe.backoffNs) / float64(pipe.wallNs)
	m["store.spool_depth_p50"] = p50(pipe.layers.depth)
	m["store.spool_depth_max"] = float64(pipe.layers.depth[len(pipe.layers.depth)-1]) // p50 sorted it
	m["store.spool_rejects"] = float64(pipe.rejects)

	m["runtime.gc_cycles"] = float64(pipe.heap1.numGC - pipe.heap0.numGC)
	m["runtime.gc_pause_total_ms"] = float64(pipe.heap1.pauseNs-pipe.heap0.pauseNs) / 1e6
	m["runtime.alloc_bytes_per_segment"] = float64(pipe.heap1.totalAlloc-pipe.heap0.totalAlloc) / delivered

	var traced, untraced []float64
	thr, _, _ := pipe.rec.slices(pipe.end)
	for i, v := range thr {
		if i&1 == 1 {
			traced = append(traced, v)
		} else {
			untraced = append(untraced, v)
		}
	}
	if len(traced) > 0 {
		m["bench.trace_overhead_share"] = 1 - median(traced)/median(untraced)
	}

	o.kernels(m, eng)
}

// kernels replays each layer's entry points alone, weighted by the codec
// mix this run chose (the fixed cycle when the engine is bypassed).
func (o *online) kernels(m readings, eng core.OnlineStats) {
	in := kernelInput{
		reg: o.reg, sample: o.pool, spans: o.spans,
		target: o.target, model: o.model, features: o.contextual, agg: o.agg, wire: true,
	}
	if o.engine != nil {
		in.mix = normalize(eng.CodecUse)
		in.encode = true
		in.probeShare = float64(eng.LossySegments) / float64(eng.Segments)
	} else {
		in.mix = make(map[string]float64)
		for _, name := range wireCodecs {
			in.mix[name] = 1 / float64(len(wireCodecs))
		}
	}
	runKernels(m, in)
}
