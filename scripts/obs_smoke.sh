#!/usr/bin/env bash
# obs_smoke.sh — end-to-end check of the observability surface.
#
# Builds cmd/adaedge, runs it with -debug-addr 127.0.0.1:0 (the ephemeral
# port path the acceptance criterion names) and -linger so the process
# survives past the run, parses the printed listen address, and fetches
# every debug endpoint: /debug/metrics must contain a known engine
# counter (and its Prometheus rendering under ?format=prom), /debug/vars
# the expvar staples, /debug/trace real decision events, /debug/quality
# the regret-oracle snapshot (-quality enables it), /debug/spans the
# segment-lifecycle spans the same trace ring holds, and /debug/pprof/
# must serve. A second phase runs the fleet experiment with -debug-addr,
# which instruments it, and curls /debug/spans and /debug/fleet against
# the live fleet observer. Run via `make obs-smoke`.
set -euo pipefail

GO=${GO:-go}
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

fetch() {
	if command -v curl >/dev/null 2>&1; then
		curl -fsS --max-time 10 "$1"
	else
		wget -qO- -T 10 "$1"
	fi
}

"$GO" build -o "$tmp/adaedge" ./cmd/adaedge
"$tmp/adaedge" -mode online -ratio 0.1 -segments 50 -quality 4 \
	-debug-addr 127.0.0.1:0 -linger 60s >"$tmp/out.log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 100); do
	addr=$(sed -n 's/^debug listening on //p' "$tmp/out.log" | head -1)
	[ -n "$addr" ] && break
	kill -0 "$pid" 2>/dev/null || { echo "adaedge exited early:"; cat "$tmp/out.log"; exit 1; }
	sleep 0.1
done
[ -n "$addr" ] || { echo "no 'debug listening on' line:"; cat "$tmp/out.log"; exit 1; }

# Give the run a moment to finish its 50 segments so counters are final.
for _ in $(seq 1 100); do
	grep -q '^segments:' "$tmp/out.log" && break
	sleep 0.1
done

metrics=$(fetch "http://$addr/debug/metrics")
echo "$metrics" | grep -q '"core.online.segments"' ||
	{ echo "metrics missing core.online.segments: $metrics"; exit 1; }
echo "$metrics" | grep -q '"histograms"' ||
	{ echo "metrics missing histograms block"; exit 1; }
echo "$metrics" | grep -q '"p95"' ||
	{ echo "metrics histograms missing quantile summaries"; exit 1; }

prom=$(fetch "http://$addr/debug/metrics?format=prom")
echo "$prom" | grep -q '^core_online_segments ' ||
	{ echo "prom exposition missing core_online_segments: $prom"; exit 1; }
echo "$prom" | grep -q '^# TYPE ' ||
	{ echo "prom exposition missing TYPE headers"; exit 1; }

quality=$(fetch "http://$addr/debug/quality")
echo "$quality" | grep -q '"cumulative_regret"' ||
	{ echo "quality snapshot missing cumulative_regret: $quality"; exit 1; }

vars=$(fetch "http://$addr/debug/vars")
echo "$vars" | grep -q '"memstats"' ||
	{ echo "vars missing memstats"; exit 1; }

trace=$(fetch "http://$addr/debug/trace?n=5")
echo "$trace" | grep -q '"kind"' ||
	{ echo "trace returned no events"; exit 1; }

spans=$(fetch "http://$addr/debug/spans?n=5")
echo "$spans" | grep -q '"stage": "ingest"' ||
	{ echo "spans missing engine lifecycle stages: $spans"; exit 1; }
echo "$spans" | grep -q '"vt_seconds"' ||
	{ echo "span records missing virtual-time field"; exit 1; }
echo "$metrics" | grep -q '"span.stage_seconds.trial"' ||
	{ echo "metrics missing span stage histograms"; exit 1; }

fetch "http://$addr/debug/pprof/" >/dev/null ||
	{ echo "pprof index unreachable"; exit 1; }

kill "$pid"
pid=""
echo "obs-smoke online phase OK (served on $addr)"

# --- Fleet phase: spans + scoreboard against a live fleet run. ---------
"$GO" build -o "$tmp/adaedge-bench" ./cmd/adaedge-bench
"$tmp/adaedge-bench" -exp fleet -devices 10 -segments 4 \
	-debug-addr 127.0.0.1:0 -linger 60s >"$tmp/fleet.log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 100); do
	addr=$(sed -n 's/^debug listening on //p' "$tmp/fleet.log" | head -1)
	[ -n "$addr" ] && break
	kill -0 "$pid" 2>/dev/null || { echo "adaedge-bench exited early:"; cat "$tmp/fleet.log"; exit 1; }
	sleep 0.1
done
[ -n "$addr" ] || { echo "no 'debug listening on' line:"; cat "$tmp/fleet.log"; exit 1; }

# Wait for the fleet run to complete (summary line + scoreboard printed).
for _ in $(seq 1 300); do
	grep -q '^fleet: ' "$tmp/fleet.log" && break
	kill -0 "$pid" 2>/dev/null || { echo "adaedge-bench exited early:"; cat "$tmp/fleet.log"; exit 1; }
	sleep 0.1
done
grep -q '^fleet: ' "$tmp/fleet.log" ||
	{ echo "fleet run never finished:"; cat "$tmp/fleet.log"; exit 1; }
grep -q 'spans closed' "$tmp/fleet.log" ||
	{ echo "fleet summary missing closed-span count:"; cat "$tmp/fleet.log"; exit 1; }
grep -q 'fleet health scoreboard:' "$tmp/fleet.log" ||
	{ echo "fleet scoreboard missing:"; cat "$tmp/fleet.log"; exit 1; }

fleetspans=$(fetch "http://$addr/debug/spans?stage=collector.deliver&n=3")
echo "$fleetspans" | grep -q '"complete": true' ||
	{ echo "fleet spans have no closed end-to-end groups: $fleetspans"; exit 1; }
echo "$fleetspans" | grep -q '"stage": "collector.deliver"' ||
	{ echo "fleet spans missing collector.deliver stages"; exit 1; }

fleet=$(fetch "http://$addr/debug/fleet")
echo "$fleet" | grep -q '"watermark_lag"' ||
	{ echo "fleet scoreboard missing watermark_lag: $fleet"; exit 1; }
echo "$fleet" | grep -q '"device": 1' ||
	{ echo "fleet scoreboard has no device rows: $fleet"; exit 1; }

one=$(fetch "http://$addr/debug/fleet?device=3")
echo "$one" | grep -q '"count": 1' ||
	{ echo "fleet ?device= selector broken: $one"; exit 1; }

kill "$pid"
pid=""
echo "obs-smoke OK (fleet served on $addr)"
