package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Bench-trajectory comparison (`adaedge-bench -compare OLD.json NEW.json`):
// the enforcement half of the continuous benchmark emitter. Two BENCH
// documents from the same matrix are diffed field class by field class:
//
//   - quality fields are seeded-deterministic, so they must match EXACTLY.
//     Any drift means a behaviour change — intended (refresh the baseline)
//     or not (a bug) — and fails the comparison either way, loudly.
//   - ns_per_segment is honest wall clock over ~4 ms cells: on a shared
//     machine it swings tens of percent between two runs of one binary
//     (ROADMAP's paired-run rule exists for that), so a delta beyond ±10%
//     is printed as a note and never fails the comparison. Speed is
//     claimed with cmd/adaedge-e2e's paired runs instead.
//   - allocs_per_op is near-deterministic for a given binary; it fails on
//     any increase beyond a small absolute slack that absorbs sync.Pool
//     refill jitter.
//
// Structural problems — unreadable files, schema version mismatch,
// different matrices — are errors, distinct from regressions: the caller
// maps them to a different exit status so CI can tell "your change is
// slower" from "these files are not comparable".

// CompareOptions tunes the perf gate.
type CompareOptions struct {
	// AllocSlack is the allowed absolute allocs_per_op increase. Zero
	// selects the default 2.0; negative means literally any increase
	// fails.
	AllocSlack float64
}

// nsNoteThreshold is the fractional ns_per_segment change worth a note.
const nsNoteThreshold = 0.10

// fleetPerfThreshold is the allowed fractional drop in the fleet cell's
// devices_x_segments_per_sec, wide enough to sit above the run-to-run
// noise of a number that crosses the kernel's loopback stack and hundreds
// of goroutines. It still catches the failure mode it exists for — a collector
// change that serializes the fleet or re-introduces per-frame lockstep
// shows up as an integer-factor collapse, not a 40% wobble.
const fleetPerfThreshold = 0.40

func (o CompareOptions) withDefaults() CompareOptions {
	if o.AllocSlack == 0 {
		o.AllocSlack = 2.0
	}
	return o
}

// CompareReport is the outcome of one document comparison.
type CompareReport struct {
	// Matched counts cells present, by name, in both documents.
	Matched int
	// QualityDiffs lists exact-match failures on deterministic fields.
	QualityDiffs []string
	// PerfRegressions lists threshold failures on perf fields.
	PerfRegressions []string
	// Notes lists informational lines (improvements, environment skew).
	Notes []string

	opts CompareOptions
}

// OK reports whether the comparison passed the gate.
func (r CompareReport) OK() bool {
	return len(r.QualityDiffs) == 0 && len(r.PerfRegressions) == 0
}

// Render writes the human-readable report.
func (r CompareReport) Render(w io.Writer) {
	fmt.Fprintf(w, "bench compare: %d case(s) matched, limit allocs/op +%.1f, ns/segment reported only\n",
		r.Matched, r.opts.AllocSlack)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if len(r.QualityDiffs) == 0 {
		fmt.Fprintln(w, "  quality: identical across all matched cases")
	}
	for _, d := range r.QualityDiffs {
		fmt.Fprintf(w, "  QUALITY DRIFT %s\n", d)
	}
	if len(r.PerfRegressions) == 0 {
		fmt.Fprintln(w, "  perf: within limits")
	}
	for _, d := range r.PerfRegressions {
		fmt.Fprintf(w, "  PERF REGRESSION %s\n", d)
	}
	if r.OK() {
		fmt.Fprintln(w, "PASS")
	} else {
		fmt.Fprintln(w, "FAIL")
	}
}

// schemaProbe reads just enough to diagnose version mismatches before the
// full validator (which would reject an old version with a less pointed
// message).
type schemaProbe struct {
	SchemaVersion int `json:"schema_version"`
}

// CompareBenchJSON diffs two raw BENCH documents. A returned error is
// structural (unparseable, wrong schema version, mismatched matrices) —
// the documents could not be compared at all. Regressions are reported
// through the CompareReport, not the error.
func CompareBenchJSON(oldData, newData []byte, opts CompareOptions) (CompareReport, error) {
	opts = opts.withDefaults()
	rep := CompareReport{opts: opts}

	var oldProbe, newProbe schemaProbe
	if err := json.Unmarshal(oldData, &oldProbe); err != nil {
		return rep, fmt.Errorf("bench compare: old document: not valid JSON: %w", err)
	}
	if err := json.Unmarshal(newData, &newProbe); err != nil {
		return rep, fmt.Errorf("bench compare: new document: not valid JSON: %w", err)
	}
	if oldProbe.SchemaVersion != BenchSchemaVersion || newProbe.SchemaVersion != BenchSchemaVersion {
		return rep, fmt.Errorf("bench compare: schema version mismatch: old=%d new=%d, this tool compares version %d (regenerate the baseline with the current binary)",
			oldProbe.SchemaVersion, newProbe.SchemaVersion, BenchSchemaVersion)
	}
	if err := ValidateBenchJSON(oldData); err != nil {
		return rep, fmt.Errorf("bench compare: old document: %w", err)
	}
	if err := ValidateBenchJSON(newData); err != nil {
		return rep, fmt.Errorf("bench compare: new document: %w", err)
	}

	var oldDoc, newDoc BenchDoc
	if err := json.Unmarshal(oldData, &oldDoc); err != nil {
		return rep, fmt.Errorf("bench compare: old document: %w", err)
	}
	if err := json.Unmarshal(newData, &newDoc); err != nil {
		return rep, fmt.Errorf("bench compare: new document: %w", err)
	}
	if oldDoc.Segments != newDoc.Segments || oldDoc.Seed != newDoc.Seed {
		return rep, fmt.Errorf("bench compare: matrix mismatch: old ran segments=%d seed=%d, new segments=%d seed=%d — quality fields are only comparable for identical matrices",
			oldDoc.Segments, oldDoc.Seed, newDoc.Segments, newDoc.Seed)
	}
	if oldDoc.GoVersion != newDoc.GoVersion {
		rep.Notes = append(rep.Notes, fmt.Sprintf("go version changed: %s -> %s (perf deltas may reflect the toolchain)",
			oldDoc.GoVersion, newDoc.GoVersion))
	}

	oldCases := make(map[string]BenchCase, len(oldDoc.Cases))
	for _, c := range oldDoc.Cases {
		oldCases[c.Name] = c
	}
	seen := make(map[string]bool, len(newDoc.Cases))
	for _, nc := range newDoc.Cases {
		seen[nc.Name] = true
		oc, ok := oldCases[nc.Name]
		if !ok {
			return rep, fmt.Errorf("bench compare: case %s present only in the new document — regenerate the baseline", nc.Name)
		}
		rep.Matched++
		rep.compareCase(oc, nc)
	}
	for name := range oldCases {
		if !seen[name] {
			return rep, fmt.Errorf("bench compare: case %s present only in the old document — regenerate the baseline", name)
		}
	}
	return rep, nil
}

// compareCase diffs one matched cell.
func (r *CompareReport) compareCase(oc, nc BenchCase) {
	id := nc.Name
	oq, nq := oc.Quality, nc.Quality

	exact := []struct {
		field    string
		old, new float64
	}{
		{"overall_ratio", oq.OverallRatio, nq.OverallRatio},
		{"mean_accuracy_loss", oq.MeanAccuracyLoss, nq.MeanAccuracyLoss},
		{"lossless_segments", float64(oq.LosslessSegments), float64(nq.LosslessSegments)},
		{"lossy_segments", float64(oq.LossySegments), float64(nq.LossySegments)},
		{"regret_samples", float64(oq.RegretSamples), float64(nq.RegretSamples)},
		{"arm_switches", float64(oq.ArmSwitches), float64(nq.ArmSwitches)},
		{"optimal_rate", oq.OptimalRate, nq.OptimalRate},
		{"space_utilization", oq.SpaceUtilization, nq.SpaceUtilization},
		{"recodes", float64(oq.Recodes), float64(nq.Recodes)},
		{"deadline_fallbacks", float64(oq.DeadlineFallbacks), float64(nq.DeadlineFallbacks)},
		{"deadline_misses", float64(oq.DeadlineMisses), float64(nq.DeadlineMisses)},
		{"deadline_violations", float64(oq.DeadlineViolations), float64(nq.DeadlineViolations)},
	}
	for _, f := range exact {
		if f.old != f.new {
			r.QualityDiffs = append(r.QualityDiffs,
				fmt.Sprintf("%s: %s %v -> %v", id, f.field, f.old, f.new))
		}
	}
	switch {
	case (oq.FinalRegret == nil) != (nq.FinalRegret == nil):
		r.QualityDiffs = append(r.QualityDiffs,
			fmt.Sprintf("%s: final_regret presence changed (%s -> %s)", id, fmtRegret(oq.FinalRegret), fmtRegret(nq.FinalRegret)))
	case oq.FinalRegret != nil && *oq.FinalRegret != *nq.FinalRegret:
		r.QualityDiffs = append(r.QualityDiffs,
			fmt.Sprintf("%s: final_regret %v -> %v", id, *oq.FinalRegret, *nq.FinalRegret))
	}

	// Fleet block: the deterministic fields (fleet shape and the
	// exactly-once delivered total) compare exactly like quality; the
	// aggregate delivery rate gets its own threshold. Session counters
	// (duplicates, kicks, evictions) depend on scheduling and are
	// informational only.
	switch {
	case (oc.Fleet == nil) != (nc.Fleet == nil):
		r.QualityDiffs = append(r.QualityDiffs,
			fmt.Sprintf("%s: fleet block presence changed", id))
	case oc.Fleet != nil:
		of, nf := oc.Fleet, nc.Fleet
		fleetExact := []struct {
			field    string
			old, new int
		}{
			{"devices", of.Devices, nf.Devices},
			{"segments_per_device", of.SegmentsPerDevice, nf.SegmentsPerDevice},
			{"delivered", of.Delivered, nf.Delivered},
		}
		for _, f := range fleetExact {
			if f.old != f.new {
				r.QualityDiffs = append(r.QualityDiffs,
					fmt.Sprintf("%s: fleet %s %d -> %d", id, f.field, f.old, f.new))
			}
		}
		if of.DevicesXSegmentsPerSec > 0 {
			rel := (nf.DevicesXSegmentsPerSec - of.DevicesXSegmentsPerSec) / of.DevicesXSegmentsPerSec
			switch {
			case rel < -fleetPerfThreshold:
				r.PerfRegressions = append(r.PerfRegressions,
					fmt.Sprintf("%s: devices_x_segments_per_sec %.0f -> %.0f (%+.1f%%, limit -%.1f%%)",
						id, of.DevicesXSegmentsPerSec, nf.DevicesXSegmentsPerSec, rel*100, fleetPerfThreshold*100))
			case rel > fleetPerfThreshold:
				r.Notes = append(r.Notes,
					fmt.Sprintf("%s: devices_x_segments_per_sec improved %.0f -> %.0f (%+.1f%%)",
						id, of.DevicesXSegmentsPerSec, nf.DevicesXSegmentsPerSec, rel*100))
			}
		}
	}

	op, np := oc.Perf, nc.Perf
	// Fleet cases skip the single-process fields: their wall clock crosses
	// loopback TCP, goroutine scheduling and injected redial backoffs, and
	// Mallocs counts whole sessions. The fleet gate above is their perf
	// axis.
	if nc.Mode == "fleet" {
		return
	}
	if op.NsPerSegment > 0 {
		if rel := (np.NsPerSegment - op.NsPerSegment) / op.NsPerSegment; rel > nsNoteThreshold || rel < -nsNoteThreshold {
			r.Notes = append(r.Notes,
				fmt.Sprintf("%s: ns_per_segment %.0f -> %.0f (%+.1f%%)",
					id, op.NsPerSegment, np.NsPerSegment, rel*100))
		}
	}
	if delta := np.AllocsPerOp - op.AllocsPerOp; delta > 0 && delta > r.opts.AllocSlack {
		r.PerfRegressions = append(r.PerfRegressions,
			fmt.Sprintf("%s: allocs_per_op %.1f -> %.1f (+%.1f, slack %.1f)",
				id, op.AllocsPerOp, np.AllocsPerOp, delta, r.opts.AllocSlack))
	} else if delta < 0 && delta < -r.opts.AllocSlack {
		r.Notes = append(r.Notes,
			fmt.Sprintf("%s: allocs_per_op improved %.1f -> %.1f", id, op.AllocsPerOp, np.AllocsPerOp))
	}
}

// Compare exit codes, shared by the CLI and its tests.
const (
	CompareExitOK         = 0 // documents comparable, gate passed
	CompareExitRegression = 1 // documents comparable, gate failed
	CompareExitError      = 2 // documents not comparable / unreadable
)

// RunCompare loads two BENCH documents, renders the comparison to w and
// returns the process exit code. Errors are also rendered to w.
func RunCompare(w io.Writer, oldPath, newPath string, opts CompareOptions) int {
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintln(w, err)
		return CompareExitError
	}
	newData, err := os.ReadFile(newPath)
	if err != nil {
		fmt.Fprintln(w, err)
		return CompareExitError
	}
	rep, err := CompareBenchJSON(oldData, newData, opts)
	if err != nil {
		fmt.Fprintln(w, err)
		return CompareExitError
	}
	rep.Render(w)
	if !rep.OK() {
		return CompareExitRegression
	}
	return CompareExitOK
}
