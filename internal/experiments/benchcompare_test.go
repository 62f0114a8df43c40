package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCompareGoldens drives the full CLI path (file load, compare, render,
// exit code) over the committed fixtures and pins the human-readable
// report byte-for-byte against golden files.
func TestCompareGoldens(t *testing.T) {
	cases := []struct {
		name     string
		newFile  string
		golden   string
		wantExit int
	}{
		{"identical", "compare_identical.json", "compare_identical.golden", CompareExitOK},
		{"quality drift", "compare_quality_drift.json", "compare_quality_drift.golden", CompareExitRegression},
		{"perf regression", "compare_perf_regression.json", "compare_perf_regression.golden", CompareExitRegression},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			exit := RunCompare(&out,
				filepath.Join("testdata", "compare_old.json"),
				filepath.Join("testdata", tc.newFile),
				CompareOptions{})
			if exit != tc.wantExit {
				t.Fatalf("exit = %d, want %d\noutput:\n%s", exit, tc.wantExit, out.String())
			}
			want := string(readFixture(t, tc.golden))
			if out.String() != want {
				t.Fatalf("report differs from golden %s:\n--- got ---\n%s--- want ---\n%s", tc.golden, out.String(), want)
			}
		})
	}
}

// TestCompareSchemaMismatch pins the dedicated error path: a version-1
// document (either side) is a structural error, exit 2, with a message
// that names both versions.
func TestCompareSchemaMismatch(t *testing.T) {
	for _, order := range []struct {
		name     string
		old, new string
	}{
		{"old is v1", "compare_schema_mismatch.json", "compare_old.json"},
		{"new is v1", "compare_old.json", "compare_schema_mismatch.json"},
	} {
		t.Run(order.name, func(t *testing.T) {
			var out bytes.Buffer
			exit := RunCompare(&out,
				filepath.Join("testdata", order.old),
				filepath.Join("testdata", order.new),
				CompareOptions{})
			if exit != CompareExitError {
				t.Fatalf("exit = %d, want %d", exit, CompareExitError)
			}
			msg := out.String()
			if !strings.Contains(msg, "schema version mismatch") {
				t.Fatalf("error does not mention the schema mismatch: %q", msg)
			}
			if !strings.Contains(msg, "1") || !strings.Contains(msg, fmt.Sprint(BenchSchemaVersion)) {
				t.Fatalf("error does not name both versions: %q", msg)
			}
		})
	}
}

// TestCompareStructuralErrors covers the remaining exit-2 paths: missing
// files, malformed JSON, mismatched matrices and mismatched case sets.
func TestCompareStructuralErrors(t *testing.T) {
	oldPath := filepath.Join("testdata", "compare_old.json")

	var out bytes.Buffer
	if exit := RunCompare(&out, oldPath, filepath.Join("testdata", "no_such_file.json"), CompareOptions{}); exit != CompareExitError {
		t.Fatalf("missing file: exit = %d, want %d", exit, CompareExitError)
	}

	badJSON := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badJSON, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if exit := RunCompare(&out, oldPath, badJSON, CompareOptions{}); exit != CompareExitError {
		t.Fatalf("malformed JSON: exit = %d, want %d", exit, CompareExitError)
	}

	base := readFixture(t, "compare_old.json")
	mutate := func(t *testing.T, mut func(m map[string]any)) []byte {
		t.Helper()
		var m map[string]any
		if err := json.Unmarshal(base, &m); err != nil {
			t.Fatal(err)
		}
		mut(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	seedDrift := mutate(t, func(m map[string]any) { m["seed"] = 99.0 })
	if _, err := CompareBenchJSON(base, seedDrift, CompareOptions{}); err == nil || !strings.Contains(err.Error(), "matrix mismatch") {
		t.Fatalf("seed drift: err = %v, want matrix mismatch", err)
	}

	dropped := mutate(t, func(m map[string]any) {
		m["cases"] = m["cases"].([]any)[:1]
	})
	if _, err := CompareBenchJSON(base, dropped, CompareOptions{}); err == nil || !strings.Contains(err.Error(), "only in the old document") {
		t.Fatalf("dropped case: err = %v, want old-only case error", err)
	}
	if _, err := CompareBenchJSON(dropped, base, CompareOptions{}); err == nil || !strings.Contains(err.Error(), "only in the new document") {
		t.Fatalf("added case: err = %v, want new-only case error", err)
	}
}

// TestCompareConfigurableLimits checks the slack knob actually moves the
// gate: the perf-regression fixture (+60% ns_per_segment, +18 allocs)
// passes once the slack is wide enough — the latency delta is a note, not
// a failure — and an explicit negative AllocSlack makes any increase fail.
func TestCompareConfigurableLimits(t *testing.T) {
	oldData := readFixture(t, "compare_old.json")
	newData := readFixture(t, "compare_perf_regression.json")

	rep, err := CompareBenchJSON(oldData, newData, CompareOptions{AllocSlack: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("a wide slack should pass, got regressions: %v", rep.PerfRegressions)
	}

	rep, err = CompareBenchJSON(oldData, newData, CompareOptions{AllocSlack: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.PerfRegressions) != 1 || !strings.Contains(rep.PerfRegressions[0], "allocs_per_op") {
		t.Fatalf("negative slack should fail on the allocs increase alone, got: %+v", rep.PerfRegressions)
	}
}

// TestCompareFinalRegretPresence pins the pointer-field diff: a regret
// value appearing or disappearing is quality drift, not a silent pass.
func TestCompareFinalRegretPresence(t *testing.T) {
	base := readFixture(t, "compare_old.json")
	var m map[string]any
	if err := json.Unmarshal(base, &m); err != nil {
		t.Fatal(err)
	}
	q := m["cases"].([]any)[0].(map[string]any)["quality"].(map[string]any)
	delete(q, "final_regret")
	noRegret, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CompareBenchJSON(base, noRegret, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("disappearing final_regret passed the gate")
	}
	found := false
	for _, d := range rep.QualityDiffs {
		if strings.Contains(d, "final_regret presence changed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no presence-changed diff in: %v", rep.QualityDiffs)
	}
}
