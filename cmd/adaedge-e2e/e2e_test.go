package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smokeScale shortens slices and epochs so a fraction of a second of
// measuring still fills a few of each, and sets each workload up once.
func smokeScale(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("drives real sockets for several seconds; skipped in -short mode")
	}
	oldSlice, oldEpoch, oldSetups, oldKernel := sliceLen, epochSegments, setupRuns, kernelSegments
	sliceLen, epochSegments, setupRuns, kernelSegments = 100, 2000, 1, 128
	t.Cleanup(func() {
		sliceLen, epochSegments, setupRuns, kernelSegments = oldSlice, oldEpoch, oldSetups, oldKernel
	})
}

// lastResult runs the command and decodes the last line it printed.
func lastResult(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, res
}

// TestSmoke runs every workload briefly, untraced and traced: each must
// come out correct and report exactly the declared metrics, none of the
// end-to-end ones zero. The traced runs must also show what the
// workloads were chosen for: which layer each exercises and which it
// bypasses.
func TestSmoke(t *testing.T) {
	smokeScale(t)
	layer := make(map[string]map[string]metricValue)
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			defs  []metric
		}{{"0", endToEnd}, {"1", perLayer}} {
			code, res := lastResult(t, "-workload", w.name, "-seed", "3", "-seconds", "0.2", "-trace", mode.trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, correct=%v, %d of %d failed", w.name, mode.trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, mode.trace, len(res.Metrics), len(mode.defs))
			}
			for _, def := range mode.defs {
				got, ok := res.Metrics[def.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: %s missing", w.name, mode.trace, def.name)
				case got.Unit != def.unit:
					t.Errorf("%s trace=%s: %s has unit %q, want %q", w.name, mode.trace, def.name, got.Unit, def.unit)
				case mode.trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s is %v", w.name, def.name, got.Value)
				}
			}
			if mode.trace == "1" {
				layer[w.name] = res.Metrics
			}
		}
	}

	ml, shift, replay, flaky := layer["edge_ml"], layer["edge_shift"], layer["wire_replay"], layer["wire_flaky"]
	// core.process_share is a ratio of sums and reads 0.5-0.6 on a
	// full-length run. `go test ./...` runs this beside other packages'
	// tests, and then a few late wake-ups in the flight are a visible part
	// of a fraction of a second's sum (0.33 was seen). The typical segment
	// does not move: hold the 0.45 on the stages' medians.
	process := ml["core.process_p50_us"].Value
	if v := process / (process + ml["transport.send_p50_us"].Value + ml["transport.flight_p50_us"].Value + ml["bench.sink_us"].Value); !(v >= 0.45) {
		t.Errorf("edge_ml: Process is %v of the median segment's stages, want >= 0.45", v)
	}
	if v := replay["core.process_share"].Value; v != 0 {
		t.Errorf("wire_replay core.process_share = %v, want 0: the engine is bypassed", v)
	}
	if v := ml["core.lossless_share"].Value; v >= 0.05 {
		t.Errorf("edge_ml core.lossless_share = %v, want < 0.05", v)
	}
	// Half the pool is plateaus: 0.5 after whole passes over it, and no
	// lower than a third wherever in a pass so short a run stops.
	if v := shift["core.lossless_share"].Value; v < 0.3 || v > 0.6 {
		t.Errorf("edge_shift core.lossless_share = %v, want 0.3-0.6", v)
	}
	for _, name := range []string{"edge_ml", "edge_shift", "wire_replay"} {
		if v := layer[name]["transport.redelivered_share"].Value; v != 0 {
			t.Errorf("%s transport.redelivered_share = %v, want 0", name, v)
		}
	}
	if v := flaky["transport.redelivered_share"].Value; !(v > 0) {
		t.Errorf("wire_flaky transport.redelivered_share = %v, want > 0", v)
	}
}

// TestCorruptDeliveryFails flips one delivered value inside the sink and
// expects the command to notice: the correctness check has to bite.
func TestCorruptDeliveryFails(t *testing.T) {
	smokeScale(t)
	corruptSinkAt = 50 * verifyStride
	t.Cleanup(func() { corruptSinkAt = -1 })
	code, res := lastResult(t, "-workload", "wire_replay", "-seed", "3", "-seconds", "0.2")
	if code == 0 || res.Correct || res.Failed < 1 {
		t.Errorf("corrupted delivery: exit %d, correct=%v, failed=%d; want a non-zero exit and a failure counted", code, res.Correct, res.Failed)
	}
}

// TestFullSampleTableIsNotAFailure fills the table of emitted frames
// early in the run: the reference check then covers a prefix of the run
// and the rest must still pass.
func TestFullSampleTableIsNotAFailure(t *testing.T) {
	smokeScale(t)
	old := verifyArena
	verifyArena = 16 << 10
	t.Cleanup(func() { verifyArena = old })
	code, res := lastResult(t, "-workload", "wire_replay", "-seed", "3", "-seconds", "0.2")
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Errorf("exit %d, correct=%v, %d of %d failed; want a correct run", code, res.Correct, res.Failed, res.Attempted)
	}
}

// TestDeclaredNamesMatch holds the names the binary emits and the ones
// BENCHMARK.json declares equal, in both directions and in order.
func TestDeclaredNamesMatch(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &declared); err != nil {
		t.Fatal(err)
	}

	if len(declared.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the binary has %d", len(declared.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := declared.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	if len(declared.EndToEnd) != len(endToEnd) || len(bounds) != len(endToEnd) {
		t.Fatalf("end-to-end metrics: %d declared, %d emitted, %d bounds", len(declared.EndToEnd), len(endToEnd), len(bounds))
	}
	for i, m := range endToEnd {
		if d := declared.EndToEnd[i]; d.Name != m.name || d.Unit != m.unit || d.Bound != bounds[m.name] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s] bound %v, the binary %s [%s] bound %v",
				i, d.Name, d.Unit, d.Bound, m.name, m.unit, bounds[m.name])
		}
	}
	if len(declared.PerLayer) != len(perLayer) {
		t.Fatalf("per-layer metrics: %d declared, %d emitted", len(declared.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if d := declared.PerLayer[i]; d.Name != m.name || d.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the binary %s [%s]", i, d.Name, d.Unit, m.name, m.unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
