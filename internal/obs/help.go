package obs

import "strings"

// Metric help text, mirrored from the OBSERVABILITY.md metric catalogue's
// "Meaning" column so the Prometheus exposition is self-documenting
// (# HELP lines). TestMetricHelpDrift diffs this map against the document
// in both directions — add the catalogue row and the entry together.
//
// Keys use the registry names, with the `<codec>` placeholder intact for
// the per-codec histogram families; HelpFor resolves concrete instances
// by family prefix.

// MetricHelp maps documented metric names to their catalogue meaning.
var MetricHelp = map[string]string{
	// Online engine.
	"core.online.segments":                 "segments processed (decisions made)",
	"core.online.segments_lossless":        "segments that stayed lossless",
	"core.online.segments_lossy":           "segments that went through the lossy bandit",
	"core.online.bandwidth_violations":     "segments whose egress exceeded link capacity",
	"core.online.no_feasible":              "hard failures: no codec reaches the target",
	"core.online.deadline_rejects":         "arms masked because their predicted encode+uplink latency misses `Config.Deadline`",
	"core.online.deadline_fallbacks":       "segments where no ratio-feasible arm met the deadline and the fastest predicted arm was forced",
	"core.online.deadline_misses":          "chosen arm's cost-model encode+uplink latency exceeded the deadline after the fact",
	"core.online.effective_target":         "effective target ratio at the last decision",
	"core.online.compress_seconds.<codec>": "per-codec trial wall time (LatencyBuckets), read only with an observer attached",

	// Offline engine.
	"core.offline.ingests":                "segments stored",
	"core.offline.recodes":                "cascade recodes completed",
	"core.offline.recodes_virtual":        "recodes done by virtual decompression",
	"core.offline.fallbacks":              "RRD-sample last-resort recodes",
	"core.offline.recode_skips":           "recodes deferred for lack of CPU budget",
	"core.offline.utilization":            "storage utilization after the last ingest/recode",
	"core.offline.segments_stored":        "pool population after the last ingest",
	"core.offline.recode_seconds.<codec>": "per-codec recode latency (LatencyBuckets)",

	// Decision quality.
	"quality.online.decisions":          "decisions observed by the tracker",
	"quality.online.samples":            "decisions given the full oracle evaluation",
	"quality.online.arm_switches":       "decisions whose codec differed from the previous one",
	"quality.online.optimal_hits":       "samples where the chosen arm was oracle-best",
	"quality.online.regret_cum":         "cumulative regret (Σ best − chosen) over all samples",
	"quality.online.regret_window":      "mean regret over the last `Window` samples",
	"quality.online.regret_last":        "regret of the most recent sample",
	"quality.online.since_switch":       "run length of the currently held codec",
	"quality.online.reward_gap.<codec>": "reward gap (best − chosen) when `<codec>` was the chosen arm (`GapBuckets`)",

	// Contextual predictor.
	"quality.contextual.ratio_error": "|predicted − achieved| compression ratio (buckets 0.005…0.5)",

	// Resilient uplink.
	"transport.uplink.dials":         "successful (re)dials",
	"transport.uplink.dial_failures": "failed dial attempts",
	"transport.uplink.sends":         "frames a successful socket write has carried whole (incl. resends)",
	"transport.uplink.send_failures": "socket write errors (connection torn down)",
	"transport.uplink.acks":          "cumulative ACKs applied (several read at once apply as one)",
	"transport.uplink.ack_failures":  "ACK read errors that ended a session (not the ones Close or a failed write caused)",
	"transport.uplink.backoffs":      "backoff sleeps between redials",
	"transport.uplink.spool_rejects": "frames the bounded spool refused",
	"transport.uplink.pending":       "spool backlog after the last append/ACK",
	"transport.uplink.spool_depth":   "backlog distribution (DepthBuckets)",
	"transport.uplink.rtt_seconds":   "a lone frame's round trip: a session's first, or every frame under lockstep (LatencyBuckets)",

	// Collector.
	"transport.collector.frames":          "frames delivered to the sink (exactly-once)",
	"transport.collector.duplicates":      "redeliveries dropped by the per-device watermark",
	"transport.collector.bad_conns":       "connections dropped on malformed input",
	"transport.collector.sessions_kicked": "stale same-device sessions displaced by a new connection",
	"transport.collector.evictions":       "idle device sessions evicted down to their watermark",
	"transport.collector.ack_batch":       "frames coalesced per ACK write (DepthBuckets)",
	"transport.collector.shard_depth":     "resident devices in the touched shard (DepthBuckets)",
}

// spanStageHelp is the shared meaning template for the nine
// span.stage_seconds.<stage> histograms (registered by New); the catalogue
// carries one row per stage with identical text.
func spanStageHelp(stage string) string {
	return "cost-model (virtual) seconds attributed to `" + stage + "` span stages; zero-cost stages count throughput only (LatencyBuckets)"
}

func init() {
	for _, stage := range stageNames {
		MetricHelp["span.stage_seconds."+stage] = spanStageHelp(stage)
	}
}

// HelpFor resolves the help text for a concrete registry name: an exact
// catalogue entry wins, then the per-codec placeholder families match by
// prefix (core.online.compress_seconds.gorilla →
// core.online.compress_seconds.<codec>). Returns "" for undocumented
// names rather than guessing.
func HelpFor(name string) string {
	if h, ok := MetricHelp[name]; ok {
		return h
	}
	for doc, h := range MetricHelp {
		i := strings.Index(doc, "<")
		if i <= 0 {
			continue
		}
		if strings.HasPrefix(name, doc[:i]) && len(name) > len(doc[:i]) {
			return h
		}
	}
	return ""
}
