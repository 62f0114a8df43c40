package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteProm checks the text exposition over a seeded snapshot:
// counters and gauges map directly, histograms render the cumulative
// _bucket/_sum/_count triplet ending at +Inf, and names are sanitized.
func TestWriteProm(t *testing.T) {
	reg := NewRegistry()
	for range 5 {
		reg.Counter("core.online.segments").Inc()
	}
	reg.Gauge("core.online.effective_target").Set(0.25)
	h := reg.Histogram("bandit.offline.lossy[2].gap", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99) // overflow

	var b strings.Builder
	if err := reg.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE core_online_segments counter\ncore_online_segments 5\n",
		"# TYPE core_online_effective_target gauge\ncore_online_effective_target 0.25\n",
		"# TYPE bandit_offline_lossy_2__gap histogram\n",
		`bandit_offline_lossy_2__gap_bucket{le="1"} 1`,
		`bandit_offline_lossy_2__gap_bucket{le="2"} 2`,
		`bandit_offline_lossy_2__gap_bucket{le="+Inf"} 3`,
		"bandit_offline_lossy_2__gap_sum 101\n",
		"bandit_offline_lossy_2__gap_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPromName pins the identifier sanitization: the registry's dots,
// brackets and hyphens all become underscores, and a leading digit is
// escaped (Prometheus identifiers cannot start with one).
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"core.online.segments":     "core_online_segments",
		"bandit.offline.lossy[2]":  "bandit_offline_lossy_2_",
		"quality.online.gap.rle-8": "quality_online_gap_rle_8",
		"9lives":                   "_lives",
		"a:b_c9":                   "a:b_c9",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMetricsPromFormat drives ?format=prom through the HTTP handler: the
// content type switches to the exposition format and the body parses as
// one "name value" sample per line.
func TestMetricsPromFormat(t *testing.T) {
	o := seededObserver()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	if !strings.Contains(out, "core_online_segments 3") {
		t.Fatalf("exposition missing counter:\n%s", out)
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		var name string
		var value float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &value); err != nil {
			t.Fatalf("unparseable sample line %q: %v", line, err)
		}
	}
}

// TestHelpFor pins the catalogue resolution rules: exact names win,
// per-codec families match concrete instances by placeholder prefix, and
// undocumented names resolve to "" rather than a guess.
func TestHelpFor(t *testing.T) {
	if got := HelpFor("core.online.segments"); got != MetricHelp["core.online.segments"] {
		t.Fatalf("exact lookup = %q", got)
	}
	want := MetricHelp["core.online.compress_seconds.<codec>"]
	if got := HelpFor("core.online.compress_seconds.gzip"); got != want {
		t.Fatalf("placeholder lookup = %q, want %q", got, want)
	}
	if got := HelpFor("span.stage_seconds.collector.deliver"); got == "" {
		t.Fatal("span stage histogram undocumented")
	}
	for _, name := range []string{"core.online.compress_seconds", "made.up.metric", ""} {
		if got := HelpFor(name); got != "" {
			t.Fatalf("HelpFor(%q) = %q, want empty", name, got)
		}
	}
}

// TestWritePromHelp checks the # HELP emission: documented metrics get
// a HELP line directly above their TYPE line (with backslash/newline
// escaping), placeholder families annotate concrete instances, and
// undocumented metrics emit TYPE only.
func TestWritePromHelp(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core.online.segments").Inc()
	reg.Counter("made.up.metric").Inc()
	reg.Histogram("core.online.compress_seconds.gzip", LatencyBuckets).Observe(0.001)

	var b strings.Builder
	if err := reg.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if want := "# HELP core_online_segments " + MetricHelp["core.online.segments"] + "\n# TYPE core_online_segments counter\n"; !strings.Contains(out, want) {
		t.Fatalf("exposition missing HELP/TYPE pair %q:\n%s", want, out)
	}
	if want := "# HELP core_online_compress_seconds_gzip " + MetricHelp["core.online.compress_seconds.<codec>"] + "\n"; !strings.Contains(out, want) {
		t.Fatalf("exposition missing placeholder-family HELP %q:\n%s", want, out)
	}
	if strings.Contains(out, "# HELP made_up_metric") {
		t.Fatalf("undocumented metric grew a HELP line:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE made_up_metric counter") {
		t.Fatalf("undocumented metric lost its TYPE line:\n%s", out)
	}
}

// TestPromEscapeHelp pins the exposition-format escaping for help text.
func TestPromEscapeHelp(t *testing.T) {
	if got := promEscapeHelp(`a\b` + "\nc"); got != `a\\b\nc` {
		t.Fatalf("promEscapeHelp = %q", got)
	}
}
