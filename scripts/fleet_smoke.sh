#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end check of the fleet-scale collector path.
#
# Two checks, both end to end:
#
#  1. `adaedge-bench -exp fleet` at a small scale: 40 simulated devices,
#     each speaking the version-2 pipelined session protocol through its
#     own fault schedule (staggered outages over one shared link cycle
#     plus the common thundering-herd reset), against one sharded
#     collector with idle eviction. RunFleet itself errors unless every
#     segment is delivered exactly once, so the run only needs to exit 0
#     and print its summary line.
#  2. The same at 120 devices x 32 segments, where a device's backlog
#     spans many outages. A session that replays its whole un-ACKed spool
#     on every redial spends the link's up-time on frames the collector
#     already has (over 100 000 duplicates for 3 840 deliveries, or a
#     drain timeout, before sessions resumed from their first ACK); one
#     that resumes redelivers at most its first frame, so RunFleet also
#     errors when duplicates exceed the dials that succeeded.
#
# Run via `make fleet-smoke`.
set -euo pipefail

GO=${GO:-go}
cd "$(dirname "$0")/.."

out=$("$GO" run ./cmd/adaedge-bench -exp fleet -devices 40 -segments 4)
echo "$out"
echo "$out" | grep -q '^fleet: 40 devices x 4 segments' ||
	{ echo "fleet smoke: missing summary line"; exit 1; }

out=$("$GO" run ./cmd/adaedge-bench -exp fleet -devices 120 -segments 32)
echo "$out"
echo "$out" | grep -q '^fleet: 120 devices x 32 segments' ||
	{ echo "fleet smoke: missing summary line"; exit 1; }

echo "fleet-smoke OK"
