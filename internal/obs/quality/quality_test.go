package quality

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// TestTrackerRegretAccounting walks a tiny scripted decision stream
// through the tracker and checks every derived statistic.
func TestTrackerRegretAccounting(t *testing.T) {
	o := obs.New(64)
	tr := NewTracker(o, Config{SampleEvery: 2, Window: 4})

	// Decision 0 (sampled): chose gzip at 0.6, best was buff at 0.9.
	tr.NoteDecision("gzip", 0.6)
	tr.ObserveSample(0,
		ArmOutcome{Arm: 0, Codec: "gzip", Reward: 0.6},
		[]ArmOutcome{{Arm: 0, Codec: "gzip", Reward: 0.6}, {Arm: 1, Codec: "buff", Reward: 0.9}})
	// Decision 1 (unsampled): switch to buff.
	tr.NoteDecision("buff", 0.9)
	// Decision 2 (sampled): buff is optimal, zero regret.
	tr.NoteDecision("buff", 0.9)
	tr.ObserveSample(2,
		ArmOutcome{Arm: 1, Codec: "buff", Reward: 0.9},
		[]ArmOutcome{{Arm: 0, Codec: "gzip", Reward: 0.6}, {Arm: 1, Codec: "buff", Reward: 0.9}})

	s := tr.Snapshot()
	if s.Decisions != 3 || s.Samples != 2 {
		t.Fatalf("Decisions/Samples = %d/%d, want 3/2", s.Decisions, s.Samples)
	}
	if want := 0.9 - 0.6; !close(s.CumulativeRegret, want) {
		t.Fatalf("CumulativeRegret = %v, want %v", s.CumulativeRegret, want)
	}
	if !close(s.MeanRegret, 0.15) || !close(s.WindowedRegret, 0.15) {
		t.Fatalf("MeanRegret/WindowedRegret = %v/%v, want 0.15", s.MeanRegret, s.WindowedRegret)
	}
	if s.LastRegret != 0 {
		t.Fatalf("LastRegret = %v, want 0", s.LastRegret)
	}
	if s.OptimalHits != 1 || !close(s.OptimalRate, 0.5) {
		t.Fatalf("OptimalHits/Rate = %d/%v, want 1/0.5", s.OptimalHits, s.OptimalRate)
	}
	if s.ArmSwitches != 1 || s.SinceSwitch != 2 || s.HeldCodec != "buff" {
		t.Fatalf("switch state = %d/%d/%q, want 1/2/buff", s.ArmSwitches, s.SinceSwitch, s.HeldCodec)
	}
	if g := s.Codecs["gzip"]; g.Chosen != 1 || g.Gaps != 1 || !close(g.GapSum, 0.3) {
		t.Fatalf("gzip ledger = %+v", g)
	}
	if b := s.Codecs["buff"]; b.Chosen != 2 || b.Best != 2 || !close(b.RewardSum, 1.8) {
		t.Fatalf("buff ledger = %+v", b)
	}

	// Metric side: gauges and counters mirror the snapshot.
	snap := o.Registry().Snapshot()
	if got := snap.Counters["quality.online.decisions"]; got != 3 {
		t.Fatalf("decisions counter = %d", got)
	}
	if got := snap.Gauges["quality.online.regret_cum"]; !close(got, 0.3) {
		t.Fatalf("regret_cum gauge = %v", got)
	}
	if h, ok := snap.Histograms["quality.online.reward_gap.gzip"]; !ok || h.Count != 1 {
		t.Fatalf("gzip gap histogram = %+v (ok=%v)", h, ok)
	}

	// Event side: one regret event per sample, on the decision order.
	var regrets []obs.Event
	for _, ev := range o.Ring().Events() {
		if ev.Source == "quality.online" {
			regrets = append(regrets, ev)
		}
	}
	if len(regrets) != 2 {
		t.Fatalf("regret events = %d, want 2", len(regrets))
	}
	if regrets[0].Codec != "buff" || !close(regrets[0].Value, 0.3) {
		t.Fatalf("first regret event = %+v", regrets[0])
	}
}

// TestTrackerSampled pins the deterministic sampling predicate.
func TestTrackerSampled(t *testing.T) {
	tr := NewTracker(nil, Config{SampleEvery: 3})
	for seq := uint64(0); seq < 9; seq++ {
		if got, want := tr.Sampled(seq), seq%3 == 0; got != want {
			t.Fatalf("Sampled(%d) = %v, want %v", seq, got, want)
		}
	}
	if got := tr.Snapshot().SampleEvery; got != 3 {
		t.Fatalf("Snapshot().SampleEvery = %d", got)
	}
}

// TestTrackerNilObserver pins the aggregation-only mode the bench emitter
// uses: no registry, no events, but Snapshot still works.
func TestTrackerNilObserver(t *testing.T) {
	tr := NewTracker(nil, Config{})
	tr.NoteDecision("gzip", 0.5)
	tr.ObserveSample(0,
		ArmOutcome{Arm: 0, Codec: "gzip", Reward: 0.5},
		[]ArmOutcome{{Arm: 0, Codec: "gzip", Reward: 0.5}, {Arm: 1, Codec: "buff", Reward: 0.7}})
	s := tr.Snapshot()
	if s.Decisions != 1 || s.Samples != 1 || !close(s.CumulativeRegret, 0.2) {
		t.Fatalf("nil-observer snapshot = %+v", s)
	}
	if s.SampleEvery != 4 || s.Window != 64 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

// TestTrackerPublishes proves NewTracker registers /debug/quality on the
// observer and the page serves the live snapshot over HTTP.
func TestTrackerPublishes(t *testing.T) {
	o := obs.New(16)
	tr := NewTracker(o, Config{})
	tr.NoteDecision("gzip", 1)

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Decisions != 1 || s.HeldCodec != "gzip" {
		t.Fatalf("published snapshot = %+v", s)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}
