package experiments

import (
	"encoding/json"
	"fmt"
	"math"
)

// benchTopLevelFields is the closed set of version-2 top-level keys.
// Unknown keys are rejected: a typoed or stale field silently ignored by
// a lenient validator would otherwise drift past the -compare gate.
var benchTopLevelFields = map[string]bool{
	"schema_version": true,
	"tool":           true,
	"go_version":     true,
	"gomaxprocs":     true,
	"segments":       true,
	"seed":           true,
	"cases":          true,
}

// ValidateBenchJSON checks a BENCH_*.json document against the version-2
// schema: required fields present, no unknown top-level fields, correctly
// typed, and numerically sane (finite, non-negative where the quantity
// cannot be negative). It is the contract CI enforces on every emitted
// artifact, hand-rolled because the repo takes no schema-library
// dependency.
func ValidateBenchJSON(data []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("bench schema: not valid JSON: %w", err)
	}
	v, err := wantNumber(doc, "schema_version")
	if err != nil {
		return err
	}
	if int(v) != BenchSchemaVersion {
		return fmt.Errorf("bench schema: schema_version = %v, validator understands %d", v, BenchSchemaVersion)
	}
	for key := range doc {
		if !benchTopLevelFields[key] {
			return fmt.Errorf("bench schema: unknown top-level field %q", key)
		}
	}
	for _, key := range []string{"tool", "go_version"} {
		if _, err := wantString(doc, key); err != nil {
			return err
		}
	}
	for _, key := range []string{"gomaxprocs", "segments", "seed"} {
		if _, err := wantNumber(doc, key); err != nil {
			return err
		}
	}
	raw, ok := doc["cases"]
	if !ok {
		return fmt.Errorf("bench schema: missing field %q", "cases")
	}
	cases, ok := raw.([]any)
	if !ok {
		return fmt.Errorf("bench schema: %q is %T, want array", "cases", raw)
	}
	if len(cases) == 0 {
		return fmt.Errorf("bench schema: empty cases array")
	}
	for i, rc := range cases {
		c, ok := rc.(map[string]any)
		if !ok {
			return fmt.Errorf("bench schema: cases[%d] is %T, want object", i, rc)
		}
		if err := validateCase(c); err != nil {
			return fmt.Errorf("bench schema: cases[%d]: %w", i, err)
		}
	}
	return nil
}

func validateCase(c map[string]any) error {
	mode, err := wantString(c, "mode")
	if err != nil {
		return err
	}
	if mode != "online" && mode != "offline" && mode != "fleet" {
		return fmt.Errorf("mode = %q, want online, offline or fleet", mode)
	}
	if _, err := wantString(c, "name"); err != nil {
		return err
	}
	if _, err := wantString(c, "target"); err != nil {
		return err
	}
	for _, key := range []string{"segments", "seed", "target_ratio", "storage_bytes"} {
		if _, err := wantNumber(c, key); err != nil {
			return err
		}
	}

	q, err := wantObject(c, "quality")
	if err != nil {
		return err
	}
	for _, key := range []string{
		"overall_ratio", "mean_accuracy_loss", "lossless_segments",
		"lossy_segments", "regret_samples", "arm_switches", "optimal_rate",
		"space_utilization", "recodes",
		"deadline_fallbacks", "deadline_misses", "deadline_violations",
	} {
		v, err := wantNumber(q, key)
		if err != nil {
			return fmt.Errorf("quality: %w", err)
		}
		if v < 0 {
			return fmt.Errorf("quality: %s = %v, want >= 0", key, v)
		}
	}
	// The deadline gate's invariant is part of the schema: a document
	// recording a violation is invalid, not merely a regression.
	if v, _ := wantNumber(q, "deadline_violations"); v != 0 {
		return fmt.Errorf("quality: deadline_violations = %v, want 0", v)
	}
	// final_regret is optional (offline cases omit it) but must be a
	// non-negative number when present.
	if raw, ok := q["final_regret"]; ok {
		v, ok := raw.(float64)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("quality: final_regret = %v, want finite number >= 0", raw)
		}
	}

	// The fleet block is required for fleet cases and forbidden elsewhere:
	// a fleet case without its outcome fields (or a stray fleet block on
	// an engine case) would silently fall out of the -compare gate.
	if _, hasFleet := c["fleet"]; hasFleet != (mode == "fleet") {
		if hasFleet {
			return fmt.Errorf("fleet block present but mode = %q", mode)
		}
		return fmt.Errorf("mode = fleet without a fleet block")
	}
	if mode == "fleet" {
		f, err := wantObject(c, "fleet")
		if err != nil {
			return err
		}
		for _, key := range []string{
			"devices", "segments_per_device", "delivered", "duplicates",
			"sessions_kicked", "evictions", "devices_x_segments_per_sec",
			"idle_bytes_per_device",
		} {
			v, err := wantNumber(f, key)
			if err != nil {
				return fmt.Errorf("fleet: %w", err)
			}
			if v < 0 {
				return fmt.Errorf("fleet: %s = %v, want >= 0", key, v)
			}
		}
		for _, key := range []string{"devices", "segments_per_device"} {
			if v, _ := wantNumber(f, key); v < 1 {
				return fmt.Errorf("fleet: %s = %v, want >= 1", key, v)
			}
		}
	}

	p, err := wantObject(c, "perf")
	if err != nil {
		return err
	}
	for _, key := range []string{
		"wall_seconds", "segments_per_sec", "raw_bytes_per_sec",
		"ns_per_segment", "allocs_per_op",
		"alloc_bytes", "mallocs", "num_gc",
	} {
		v, err := wantNumber(p, key)
		if err != nil {
			return fmt.Errorf("perf: %w", err)
		}
		if v < 0 {
			return fmt.Errorf("perf: %s = %v, want >= 0", key, v)
		}
	}
	return nil
}

func wantNumber(m map[string]any, key string) (float64, error) {
	raw, ok := m[key]
	if !ok {
		return 0, fmt.Errorf("missing field %q", key)
	}
	v, ok := raw.(float64)
	if !ok {
		return 0, fmt.Errorf("%q is %T, want number", key, raw)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not finite", key)
	}
	return v, nil
}

func wantString(m map[string]any, key string) (string, error) {
	raw, ok := m[key]
	if !ok {
		return "", fmt.Errorf("missing field %q", key)
	}
	s, ok := raw.(string)
	if !ok {
		return "", fmt.Errorf("%q is %T, want string", key, raw)
	}
	if s == "" {
		return "", fmt.Errorf("%q is empty", key)
	}
	return s, nil
}

func wantObject(m map[string]any, key string) (map[string]any, error) {
	raw, ok := m[key]
	if !ok {
		return nil, fmt.Errorf("missing field %q", key)
	}
	o, ok := raw.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("%q is %T, want object", key, raw)
	}
	return o, nil
}
