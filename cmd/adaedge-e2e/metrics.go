package main

// metric names one reported quantity. The two tables below are the
// single source of the names the binary emits; e2e_test.go checks them
// against BENCHMARK.json in both directions.
type metric struct {
	name, unit string
}

// endToEnd is what a user of the device sees, measured with tracing off.
// The same names are reported on every workload. Failures are not a
// metric: they are the attempted/failed pair of the result line, and any
// failure makes the run incorrect. Throughput, CPU per segment and
// delivery latency are not here but under path.* below: the shared
// sandbox has faster and slower minutes, 1.3 to 1.5 times apart, and ten
// runs that straddle both spread any clock-based number wider than the
// widest bound a benchmark may declare (README.md has the numbers), so
// they are measured on every run, reported, and not gated.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"out_bytes_per_raw_byte", "ratio"},
	{"task_accuracy", "ratio"},
	{"allocs_per_segment", "count"},
	{"live_heap_mb", "MB"},
}

// bounds is, for each end-to-end metric, the share of the median by which
// it may worsen before a change counts as a regression, which is also the
// run-to-run spread -repeat allows. The counts are held tightly; set-up
// time, the one clock-based number, gets the widest bound there is.
var bounds = map[string]float64{
	"setup_s":                0.25,
	"out_bytes_per_raw_byte": 0.05,
	"task_accuracy":          0.02,
	"allocs_per_segment":     0.10,
	"live_heap_mb":           0.05,
}

// perLayer is what the traced run reports; the prefix is the module the
// number belongs to, path.* the whole path. A metric a workload does not
// exercise reads 0 there (core.process_share on wire_replay, transport.*
// on offline_recode).
var perLayer = []metric{
	{"path.segments_per_s", "1/s"},
	{"path.cpu_us_per_segment", "us"},
	{"path.deliver_p50_us", "us"},
	{"path.deliver_p99_us", "us"},

	{"core.process_p50_us", "us"},
	{"core.process_share", "ratio"},
	{"core.lossless_share", "ratio"},
	{"core.codec_switches_per_1k", "count"},
	{"core.distinct_codecs", "count"},
	{"core.mean_reward", "ratio"},
	{"core.recodes_per_segment", "count"},
	{"core.space_utilization", "ratio"},
	{"core.ingest_stall_share", "ratio"},

	{"compress.encode_us", "us"},
	{"compress.decode_us", "us"},
	{"compress.minratio_us", "us"},
	{"compress.recode_us", "us"},
	{"compress.encode_allocs", "count"},
	{"compress.decode_allocs", "count"},

	{"contextual.features_us", "us"},
	{"ml.predict_us", "us"},
	{"query.agg_us", "us"},

	{"transport.send_p50_us", "us"},
	{"transport.flight_p50_us", "us"},
	{"transport.flight_share", "ratio"},
	{"transport.flight_pipelined_p50_us", "us"},
	{"transport.frame_codec_us", "us"},
	{"transport.socket_writes_per_frame", "count"},
	{"transport.socket_reads_per_frame", "count"},
	{"transport.ack_bytes_per_frame", "B"},
	{"transport.wire_overhead_share", "ratio"},
	{"transport.frames_sent_per_segment", "count"},
	{"transport.redelivered_share", "ratio"},
	{"transport.dials", "count"},
	{"transport.dial_failures", "count"},
	{"transport.send_failures", "count"},
	{"transport.ack_failures", "count"},
	{"transport.sessions_kicked", "count"},
	{"transport.recovery_p50_ms", "ms"},
	{"transport.backoff_sleep_share", "ratio"},

	{"store.spool_depth_p50", "count"},
	{"store.spool_depth_max", "count"},
	{"store.spool_rejects", "count"},
	{"store.spool_op_us", "us"},
	{"store.pool_bytes_per_segment", "B"},
	{"store.pool_entries", "count"},
	{"store.pool_op_us", "us"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.alloc_bytes_per_segment", "B"},

	{"bench.sink_us", "us"},
	{"bench.root_self_share", "ratio"},
	{"bench.trace_overhead_share", "ratio"},
}

// pathMetrics are the per-layer entries that every run measures, traced
// or not: the untraced run prints them beside its end-to-end metrics.
var pathMetrics = perLayer[:4]

// readings holds one run's numbers by metric name.
type readings map[string]float64
