// Catalogue-drift guard: OBSERVABILITY.md documents every metric, every
// trace record (source, kind and lifecycle stage) the system emits, and
// this test keeps the document honest in both directions. It drives every instrumented surface — both
// engines (online with the quality oracle attached), a resilient uplink
// under a fault schedule, and a live collector — against test observers,
// then diffs the union of what the registries and trace rings actually
// saw against what the document's tables claim.
//
// Direction 1 (emitted ⊆ documented) is strict: any new metric or event
// kind that ships without a catalogue row fails here. Direction 2
// (documented ⊆ emitted) is strict for metrics (every counter and gauge
// registers eagerly at construction; the per-codec histogram families
// are matched by prefix) and for event sources; individual event kinds
// whose occurrence depends on fault timing are carried in an explicit
// allowlist below rather than silently skipped.
package repro

import (
	"fmt"
	"net"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/obs/quality"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/transport"
)

// undrivenKinds are documented event kinds this harness cannot force
// deterministically: the transport fail/backoff kinds fire only when the
// fault schedule lands mid-operation, redelivery needs an ACK lost in
// flight, and the offline fallback needs a segment no cascade recode can
// shrink. They stay in the document (operators do see them) but are
// exempt from the documented→emitted direction.
var undrivenKinds = map[string]bool{
	"transport.uplink/dial-fail":    true,
	"transport.uplink/send-fail":    true,
	"transport.uplink/ack-fail":     true,
	"transport.uplink/backoff":      true,
	"transport.collector/redeliver": true,
	"core.offline/fallback":         true,
}

// metricRowRE matches one metric-catalogue table row: a backticked name
// followed by a type cell.
var metricRowRE = regexp.MustCompile("^\\|\\s*`([^`]+)`\\s*\\|\\s*(counter|gauge|histogram)\\s*\\|")

// backtickRE extracts backticked identifiers from a table cell.
var backtickRE = regexp.MustCompile("`([^`]+)`")

// bucketRE matches the pool-instance suffix in emitted bandit sources.
var bucketRE = regexp.MustCompile(`\[\d+\]`)

// docCatalogue is what OBSERVABILITY.md claims: metric names (with
// `<codec>`/`<bucket>` placeholders intact), each metric's Meaning cell,
// and the one record table: source → kind → the lifecycle stages a record
// of that kind may carry (empty for records that are not stages).
type docCatalogue struct {
	metrics map[string]bool
	help    map[string]string                     // metric name → Meaning cell
	events  map[string]map[string]map[string]bool // source → kind → stage set
}

// stages is the set of every documented lifecycle stage.
func (c docCatalogue) stages() map[string]bool {
	out := map[string]bool{}
	for _, kinds := range c.events {
		for _, stages := range kinds {
			for st := range stages {
				out[st] = true
			}
		}
	}
	return out
}

// splitTableRow splits one markdown table row into trimmed cells,
// honouring the `\|` escape used inside Meaning cells (the leading and
// trailing empty cells from the outer pipes are dropped).
func splitTableRow(line string) []string {
	var cells []string
	var cur strings.Builder
	escaped := false
	for _, r := range line {
		switch {
		case escaped:
			if r != '|' {
				cur.WriteRune('\\')
			}
			cur.WriteRune(r)
			escaped = false
		case r == '\\':
			escaped = true
		case r == '|':
			cells = append(cells, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	cells = append(cells, strings.TrimSpace(cur.String()))
	if len(cells) >= 2 {
		cells = cells[1 : len(cells)-1]
	}
	return cells
}

func parseCatalogue(t *testing.T) docCatalogue {
	t.Helper()
	data, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	cat := docCatalogue{
		metrics: map[string]bool{},
		help:    map[string]string{},
		events:  map[string]map[string]map[string]bool{},
	}
	inEvents := false
	for _, line := range strings.Split(string(data), "\n") {
		if m := metricRowRE.FindStringSubmatch(line); m != nil {
			cat.metrics[m[1]] = true
			if cells := splitTableRow(line); len(cells) >= 3 {
				cat.help[m[1]] = cells[2]
			}
			continue
		}
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "| Source | Kinds | Stage"):
			inEvents = true
			continue
		case !strings.HasPrefix(trimmed, "|"):
			inEvents = false
			continue
		}
		cells := strings.Split(trimmed, "|")
		if !inEvents || len(cells) < 5 || strings.HasPrefix(strings.TrimSpace(cells[1]), "---") {
			continue
		}
		sources := backtickRE.FindAllStringSubmatch(cells[1], -1)
		kinds := backtickRE.FindAllStringSubmatch(cells[2], -1)
		stages := backtickRE.FindAllStringSubmatch(cells[3], -1)
		for _, s := range sources {
			ks := cat.events[s[1]]
			if ks == nil {
				ks = map[string]map[string]bool{}
				cat.events[s[1]] = ks
			}
			for _, k := range kinds {
				if ks[k[1]] == nil {
					ks[k[1]] = map[string]bool{}
				}
				for _, st := range stages {
					ks[k[1]][st[1]] = true
				}
			}
		}
	}
	if len(cat.metrics) == 0 || len(cat.events) == 0 || len(cat.stages()) == 0 {
		t.Fatalf("parsed an empty catalogue (metrics=%d, record sources=%d, stages=%d) — did the table format change?",
			len(cat.metrics), len(cat.events), len(cat.stages()))
	}
	return cat
}

// metricDocumented matches an emitted name against the catalogue,
// honouring the `.<codec>` per-codec histogram placeholder.
func (c docCatalogue) metricDocumented(name string) bool {
	if c.metrics[name] {
		return true
	}
	for doc := range c.metrics {
		if i := strings.Index(doc, "<codec>"); i > 0 {
			if strings.HasPrefix(name, doc[:i]) && len(name) > len(doc[:i]) {
				return true
			}
		}
	}
	return false
}

// normalizeSource rewrites pool-instance sources onto their documented
// placeholder form (bandit.offline.lossy[2] → bandit.offline.lossy[<bucket>]).
func normalizeSource(src string) string {
	return bucketRE.ReplaceAllString(src, "[<bucket>]")
}

// driftOutcome is the union of everything the driven surfaces emitted.
type driftOutcome struct {
	metrics map[string]bool
	events  map[string]map[string]map[string]bool // source → kind → stages carried ("" for none)
}

func (o *driftOutcome) absorb(t *testing.T, obsv *obs.Observer) {
	t.Helper()
	snap := obsv.Registry().Snapshot()
	for name := range snap.Counters {
		o.metrics[name] = true
	}
	for name := range snap.Gauges {
		o.metrics[name] = true
	}
	for name := range snap.Histograms {
		o.metrics[name] = true
	}
	if d := obsv.Ring().Dropped(); d != 0 {
		t.Fatalf("drift harness ring dropped %d records — raise its capacity", d)
	}
	for _, ev := range obsv.Ring().Events() {
		src := normalizeSource(ev.Source)
		ks := o.events[src]
		if ks == nil {
			ks = map[string]map[string]bool{}
			o.events[src] = ks
		}
		if ks[ev.Kind] == nil {
			ks[ev.Kind] = map[string]bool{}
		}
		ks[ev.Kind][ev.Stage] = true
	}
}

// stages is the set of every stage name carried by an emitted record.
func (o driftOutcome) stages() map[string]bool {
	out := map[string]bool{}
	for _, kinds := range o.events {
		for _, stages := range kinds {
			for st := range stages {
				if st != "" {
					out[st] = true
				}
			}
		}
	}
	return out
}

// driveEngines runs the online engine (quality oracle attached, plus an
// infeasible-target run for the no_feasible path) and the offline engine
// (budget tight enough to force cascade recodes) against one observer.
func driveEngines(t *testing.T, o *obs.Observer) {
	t.Helper()
	eng, err := core.NewOnlineEngine(core.Config{
		TargetRatioOverride: 0.15,
		Objective:           core.AggTarget(query.Max),
		Seed:                42,
		Obs:                 o,
		Quality:             &quality.Config{SampleEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 90})
	segs := make([]core.LabeledSegment, 40)
	for i := range segs {
		v, label := stream.Next()
		segs[i] = core.LabeledSegment{Values: v, Label: label}
	}
	if _, err := core.RunOnlineSegments(eng, segs); err != nil {
		t.Fatal(err)
	}

	// An unreachable ratio target: every lossless trial overshoots and
	// every lossy codec's floor is above it, so each segment takes the
	// no_feasible path deterministically.
	hard, err := core.NewOnlineEngine(core.Config{
		TargetRatioOverride: 0.0001,
		Objective:           core.SingleTarget(core.TargetRatio),
		Seed:                7,
		Obs:                 o,
	})
	if err != nil {
		t.Fatal(err)
	}
	infeasible := 0
	for i := 0; i < 4; i++ {
		v, label := stream.Next()
		if _, _, err := hard.Process(v, label); err != nil {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Fatal("infeasible-target run succeeded — no_feasible path not driven")
	}

	// A contextual run under an unmeetable deadline drives the predictive
	// layer end to end: predict events and the prediction-error histograms
	// once arms warm up, deadline rejects as predictions turn infeasible,
	// and the forced-fallback path (every ratio-feasible arm missing the
	// deadline) with its deadline_fallback events and miss counter.
	ctxEng, err := core.NewOnlineEngine(core.Config{
		TargetRatioOverride: 0.15,
		Objective:           core.SingleTarget(core.TargetRatio),
		BanditPolicy:        "contextual",
		Deadline:            200 * time.Nanosecond,
		Seed:                21,
		Obs:                 o,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctxSegs := make([]core.LabeledSegment, 40)
	for i := range ctxSegs {
		v, label := stream.Next()
		ctxSegs[i] = core.LabeledSegment{Values: v, Label: label}
	}
	if _, err := core.RunOnlineSegments(ctxEng, ctxSegs); err != nil {
		t.Fatal(err)
	}
	if st := ctxEng.Stats(); st.DeadlineFallbacks == 0 || st.DeadlineMisses == 0 || st.DeadlineRejects == 0 {
		t.Fatalf("contextual deadline run did not drive the gate (stats %+v)", st)
	}

	off, err := core.NewOfflineEngine(core.Config{
		StorageBytes: 30 << 10,
		Objective:    core.AggTarget(query.Sum),
		Seed:         7,
		Obs:          o,
	})
	if err != nil {
		t.Fatal(err)
	}
	offStream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 92})
	for i := 0; i < 120; i++ {
		v, label := offStream.Next()
		if err := off.Ingest(v, label); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if off.Stats().Recodes == 0 {
		t.Fatal("offline run performed no recodes — lossy pool sources not driven")
	}
}

// driveTransport pushes frames through a faulted resilient uplink into a
// live instrumented collector (the chaos-test harness, abbreviated).
func driveTransport(t *testing.T, upObs, colObs *obs.Observer) {
	t.Helper()
	reg := compress.DefaultRegistry(4)
	col := transport.NewCollector(reg, func(transport.Frame, []float64) {}).Instrument(colObs)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = col.Close() }()

	link := sim.NewLink(
		sim.LinkPhase{Seconds: 0.30, Bandwidth: sim.Net4G},
		sim.LinkPhase{Seconds: 0.15, Bandwidth: 0},
	)
	plan := sim.NewFaultPlan(link, 20000, 0.02)
	plan.StallAt(0.5)
	plan.ResetAt(1.0)

	up, err := transport.DialResilient(transport.ResilientConfig{
		Addr:         addr.String(),
		DeviceID:     42,
		Seed:         7,
		BackoffBase:  200 * time.Microsecond,
		BackoffMax:   2 * time.Millisecond,
		WriteTimeout: 5 * time.Second,
		AckTimeout:   5 * time.Second,
		Dialer: func(a string, timeout time.Duration) (net.Conn, error) {
			return plan.Dial(func() (net.Conn, error) {
				return net.DialTimeout("tcp", a, timeout)
			})
		},
		Obs: upObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	X, _ := datasets.CBF(30, datasets.CBFConfig{Seed: 5})
	names := reg.Names()
	for i, row := range X {
		codec, ok := reg.Lookup(names[i%len(names)])
		if !ok {
			t.Fatalf("codec %q missing from registry", names[i%len(names)])
		}
		enc, err := compress.Compress(codec, row)
		if err != nil {
			t.Fatal(err)
		}
		// Traced frames drive the wire/collector span stages and the
		// frame header's trace field end to end.
		frame := transport.Frame{ID: uint64(i), Label: -1, Trace: obs.TraceOfSegment(uint64(i)), Enc: enc}
		if err := up.Send(frame); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := up.WaitDrain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestObservabilityCatalogueDrift diffs the live registry and trace-ring
// contents against OBSERVABILITY.md's tables in both directions.
func TestObservabilityCatalogueDrift(t *testing.T) {
	cat := parseCatalogue(t)

	// The engine drives the device-side stages, the traced transport run
	// drives the spool/wire/collector stages.
	engObs := obs.New(1 << 16)
	upObs := obs.New(1 << 16)
	colObs := obs.New(1 << 16)
	driveEngines(t, engObs)
	driveTransport(t, upObs, colObs)

	got := driftOutcome{metrics: map[string]bool{}, events: map[string]map[string]map[string]bool{}}
	got.absorb(t, engObs)
	got.absorb(t, upObs)
	got.absorb(t, colObs)

	var drift []string

	// Emitted → documented (strict).
	for _, name := range sortedKeys(got.metrics) {
		if !cat.metricDocumented(name) {
			drift = append(drift, fmt.Sprintf("metric %q is emitted but missing from OBSERVABILITY.md", name))
		}
	}
	for _, src := range sortedKeys(got.events) {
		for _, kind := range sortedKeys(got.events[src]) {
			documented, ok := cat.events[src][kind]
			if !ok {
				drift = append(drift, fmt.Sprintf("event %s/%s is emitted but missing from OBSERVABILITY.md", src, kind))
				continue
			}
			for _, stage := range sortedKeys(got.events[src][kind]) {
				if stage != "" && !documented[stage] {
					drift = append(drift, fmt.Sprintf("event %s/%s carries stage %q, which its OBSERVABILITY.md row does not name", src, kind, stage))
				}
			}
		}
	}

	// Documented → emitted. Placeholder metric families need one live
	// instance; event kinds may sit in the undriven allowlist.
	for _, doc := range sortedKeys(cat.metrics) {
		if i := strings.Index(doc, "<codec>"); i > 0 {
			if !anyPrefixed(got.metrics, doc[:i]) {
				drift = append(drift, fmt.Sprintf("documented metric family %q has no live instance", doc))
			}
			continue
		}
		if !got.metrics[doc] {
			drift = append(drift, fmt.Sprintf("documented metric %q was never registered", doc))
		}
	}
	for _, src := range sortedKeys(cat.events) {
		if got.events[src] == nil {
			drift = append(drift, fmt.Sprintf("documented event source %q emitted nothing", src))
			continue
		}
		for _, kind := range sortedKeys(cat.events[src]) {
			if got.events[src][kind] == nil && !undrivenKinds[src+"/"+kind] {
				drift = append(drift, fmt.Sprintf("documented event %s/%s was never emitted", src, kind))
			}
		}
	}

	// Stages, both directions: every stage a record carried is checked
	// against its row above, every documented stage must be recorded (the
	// harness drives the full lifecycle), and the documented set must match
	// the canonical obs.StageNames set exactly.
	docStages, gotStages := cat.stages(), got.stages()
	for _, stage := range sortedKeys(docStages) {
		if !gotStages[stage] {
			drift = append(drift, fmt.Sprintf("documented stage %q was never recorded", stage))
		}
	}
	canonical := map[string]bool{}
	for _, stage := range obs.StageNames() {
		canonical[stage] = true
		if !docStages[stage] {
			drift = append(drift, fmt.Sprintf("stage %q (obs.StageNames) has no OBSERVABILITY.md row", stage))
		}
	}
	for _, stage := range sortedKeys(docStages) {
		if !canonical[stage] {
			drift = append(drift, fmt.Sprintf("documented stage %q is not in obs.StageNames", stage))
		}
	}

	if len(drift) > 0 {
		t.Fatalf("observability catalogue drift (%d):\n  %s", len(drift), strings.Join(drift, "\n  "))
	}
}

// TestMetricHelpDrift keeps obs.MetricHelp (the # HELP source for the
// Prometheus exposition) mirrored against the catalogue's Meaning cells
// in both directions: every documented metric's meaning must be the help
// text verbatim, and every help entry must have a catalogue row.
func TestMetricHelpDrift(t *testing.T) {
	cat := parseCatalogue(t)
	var drift []string
	for _, name := range sortedKeys(cat.metrics) {
		want, ok := cat.help[name]
		if !ok || want == "" {
			drift = append(drift, fmt.Sprintf("metric %q has no Meaning cell", name))
			continue
		}
		if got := obs.MetricHelp[name]; got != want {
			drift = append(drift, fmt.Sprintf("metric %q help drifted:\n    doc:  %q\n    code: %q", name, want, got))
		}
	}
	for name := range obs.MetricHelp {
		if !cat.metrics[name] {
			drift = append(drift, fmt.Sprintf("obs.MetricHelp[%q] has no OBSERVABILITY.md catalogue row", name))
		}
	}
	if len(drift) > 0 {
		t.Fatalf("metric help drift (%d):\n  %s", len(drift), strings.Join(drift, "\n  "))
	}
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func anyPrefixed(set map[string]bool, prefix string) bool {
	for name := range set {
		if strings.HasPrefix(name, prefix) && len(name) > len(prefix) {
			return true
		}
	}
	return false
}
