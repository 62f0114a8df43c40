// Package quality turns the decision trace into decision-*quality*
// telemetry: how good the bandit's codec choices are relative to an
// online oracle that scores every feasible arm on the same segment.
//
// The obs layer (PR 4) records what was chosen; this package records what
// it cost to not choose the best arm. Per sampled decision the core
// engine hands the Tracker the chosen arm's oracle reward plus the full
// candidate set (one outcome per phase-feasible arm, each trial rerun by
// the engine's oracle on the decision goroutine). The Tracker derives:
//
//   - instantaneous, cumulative and windowed regret (best − chosen),
//   - per-codec reward-gap histograms (how far each codec trails the
//     best arm when it is chosen),
//   - arm-switch and convergence counters (how long the current arm has
//     been held),
//   - per-codec attribution: times chosen, times oracle-best, reward and
//     gap sums.
//
// Everything lands in the ordinary obs.Registry (so /debug/metrics and
// the ?format=prom exposition see it), in regret trace events on the
// decision goroutine (so seeded runs reproduce them byte-for-byte), and
// in a structured JSON snapshot published at /debug/quality.
//
// The package deliberately has no dependency on core: core computes the
// rewards (it owns the evaluator and the codecs), quality aggregates
// them. The Tracker itself never selects and never updates a policy —
// attaching it must not perturb decisions, the invariant
// TestQualityDoesNotPerturbDecisions enforces.
package quality

import (
	"sync"

	"repro/internal/obs"
)

// Config parameterizes a Tracker.
type Config struct {
	// SampleEvery runs the full oracle evaluation on every Nth decision
	// (decision 0, N, 2N, …). 1 scores every decision; 0 selects the
	// default of 4. Sampling bounds the cost of rerunning every
	// candidate trial while keeping the regret estimate unbiased for
	// stationary streams.
	SampleEvery int
	// Window is the number of recent samples in the windowed-regret gauge
	// (default 64): cumulative regret says how much a run lost overall,
	// windowed regret says whether the bandit has converged *now*.
	Window int
	// Source labels the regret trace events (default "quality.online").
	Source string
}

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 4
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Source == "" {
		c.Source = "quality.online"
	}
	return c
}

// ArmOutcome is one oracle-scored candidate: the reward arm/codec would
// have earned on the sampled segment.
type ArmOutcome struct {
	Arm    int     `json:"arm"`
	Codec  string  `json:"codec"`
	Reward float64 `json:"reward"`
}

// CodecStats is the per-codec attribution ledger.
type CodecStats struct {
	// Chosen counts decisions that selected this codec.
	Chosen int `json:"chosen"`
	// RewardSum accumulates the decision rewards of those choices.
	RewardSum float64 `json:"reward_sum"`
	// Best counts sampled decisions where the oracle ranked this codec
	// first.
	Best int `json:"best"`
	// GapSum and Gaps accumulate this codec's reward gap (best − its
	// reward) over the sampled decisions where it was the chosen arm.
	GapSum float64 `json:"gap_sum"`
	Gaps   int     `json:"gaps"`
}

// ArmStat is one bandit arm's live view, supplied by the engine via
// SetArmSource: the policy's estimate next to the raw reward ledger.
type ArmStat struct {
	Codec    string  `json:"codec"`
	Count    int     `json:"count"`
	Estimate float64 `json:"estimate"`
	// RewardSum is the cumulative reward fed to Update for this arm
	// (bandit.Policy.RewardsInto).
	RewardSum float64 `json:"reward_sum"`
}

// Snapshot is the structured state served at /debug/quality.
type Snapshot struct {
	// SampleEvery and Window echo the configuration.
	SampleEvery int `json:"sample_every"`
	Window      int `json:"window"`
	// Decisions counts every decision seen; Samples the oracle-scored
	// subset.
	Decisions int `json:"decisions"`
	Samples   int `json:"samples"`
	// CumulativeRegret sums best − chosen over all samples; MeanRegret
	// divides by Samples. WindowedRegret is the mean over the last Window
	// samples, LastRegret the most recent sample.
	CumulativeRegret float64 `json:"cumulative_regret"`
	MeanRegret       float64 `json:"mean_regret"`
	WindowedRegret   float64 `json:"windowed_regret"`
	LastRegret       float64 `json:"last_regret"`
	// OptimalHits counts samples where the chosen arm was oracle-best;
	// OptimalRate divides by Samples.
	OptimalHits int     `json:"optimal_hits"`
	OptimalRate float64 `json:"optimal_rate"`
	// ArmSwitches counts decisions whose codec differed from the previous
	// decision's; SinceSwitch is the current run length of the held codec
	// — the convergence signal.
	ArmSwitches int    `json:"arm_switches"`
	SinceSwitch int    `json:"since_switch"`
	HeldCodec   string `json:"held_codec,omitempty"`
	// Codecs is the per-codec attribution ledger.
	Codecs map[string]CodecStats `json:"codecs"`
	// Arms mirrors the engine's bandit state per phase (SetArmSource);
	// nil when the engine did not attach one.
	Arms map[string][]ArmStat `json:"arms,omitempty"`
}

// GapBuckets bound the per-codec reward-gap histograms: rewards live in
// [0,1], so gaps do too, with fine resolution near 0 where a converged
// bandit should sit.
var GapBuckets = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1}

// Tracker aggregates decision-quality telemetry. NoteDecision and
// ObserveSample must be called from the decision goroutine (they are in
// the deterministic event path); Snapshot may be called from any
// goroutine (the debug handler does). A nil Tracker is the disabled
// configuration: every method is nil-receiver safe.
type Tracker struct {
	cfg  Config
	ring *obs.Ring
	reg  *obs.Registry

	decisions *obs.Counter
	samples   *obs.Counter
	switches  *obs.Counter
	optimal   *obs.Counter

	regretCum    *obs.Gauge
	regretWindow *obs.Gauge
	regretLast   *obs.Gauge
	sinceSwitch  *obs.Gauge

	// gap memoizes per-codec reward-gap histograms; only the decision
	// goroutine touches the map (same pattern as core's trial histograms).
	gap map[string]*obs.Histogram

	mu sync.Mutex
	st state // guarded by mu
}

// state is the snapshot-facing aggregate, mutated only under mu.
type state struct {
	decisions   int
	samples     int
	cumRegret   float64
	lastRegret  float64
	window      []float64
	windowNext  int
	windowFull  bool
	optimalHits int
	armSwitches int
	sinceSwitch int
	heldCodec   string
	started     bool
	codecs      map[string]*CodecStats
	armSource   func() map[string][]ArmStat
}

// NewTracker builds a Tracker against an observer and publishes its JSON
// snapshot at /debug/quality. A nil observer yields a Tracker that still
// aggregates (Snapshot works — the benchmark emitter relies on it) but
// registers no metrics and emits no events.
func NewTracker(o *obs.Observer, cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{
		cfg:  cfg,
		ring: o.Ring(),
		reg:  o.Registry(),
		gap:  make(map[string]*obs.Histogram),
	}
	t.mu.Lock()
	t.st.window = make([]float64, cfg.Window)
	t.st.codecs = make(map[string]*CodecStats)
	t.mu.Unlock()
	if reg := t.reg; reg != nil {
		t.decisions = reg.Counter("quality.online.decisions")
		t.samples = reg.Counter("quality.online.samples")
		t.switches = reg.Counter("quality.online.arm_switches")
		t.optimal = reg.Counter("quality.online.optimal_hits")
		t.regretCum = reg.Gauge("quality.online.regret_cum")
		t.regretWindow = reg.Gauge("quality.online.regret_window")
		t.regretLast = reg.Gauge("quality.online.regret_last")
		t.sinceSwitch = reg.Gauge("quality.online.since_switch")
	}
	o.Publish("/debug/quality", func() any { return t.Snapshot() })
	return t
}

// Sampled reports whether decision seq gets the full oracle evaluation.
// Pure function of (seq, SampleEvery), so it is identical at any worker
// count.
func (t *Tracker) Sampled(seq uint64) bool {
	if t == nil {
		return false
	}
	return seq%uint64(t.cfg.SampleEvery) == 0
}

// SetArmSource attaches the engine's live bandit view, merged into
// Snapshot. fn is called outside the decision path (snapshot time only)
// and must be safe to call from any goroutine.
func (t *Tracker) SetArmSource(fn func() map[string][]ArmStat) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.st.armSource = fn
	t.mu.Unlock()
}

// NoteDecision records one decision outcome (every decision, sampled or
// not): switch/convergence counters and per-codec attribution. Decision
// goroutine only.
func (t *Tracker) NoteDecision(codec string, reward float64) {
	if t == nil {
		return
	}
	t.decisions.Inc()
	t.mu.Lock()
	t.st.decisions++
	if t.st.started && codec != t.st.heldCodec {
		t.st.armSwitches++
		t.st.sinceSwitch = 1
		t.switches.Inc()
	} else {
		t.st.sinceSwitch++
	}
	t.st.started = true
	t.st.heldCodec = codec
	cs := t.codecStatsLocked(codec)
	cs.Chosen++
	cs.RewardSum += reward
	since := t.st.sinceSwitch
	t.mu.Unlock()
	t.sinceSwitch.Set(float64(since))
}

// ObserveSample records one oracle-scored decision: chosen is the chosen
// arm's oracle outcome, candidates every phase-feasible arm's (including
// the chosen one). Emits one "regret" trace event carrying the best arm and
// the regret — on the calling (decision) goroutine, so the event sequence
// stays deterministic. Decision goroutine only.
func (t *Tracker) ObserveSample(id uint64, chosen ArmOutcome, candidates []ArmOutcome) {
	if t == nil || len(candidates) == 0 {
		return
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.Reward > best.Reward {
			best = c
		}
	}
	regret := best.Reward - chosen.Reward
	if regret < 0 {
		// The chosen arm can only beat every candidate through float
		// noise; clamp so cumulative regret stays monotone.
		regret = 0
	}

	t.samples.Inc()
	h, ok := t.gap[chosen.Codec]
	if !ok && t.reg != nil {
		h = t.reg.Histogram("quality.online.reward_gap."+chosen.Codec, GapBuckets)
		t.gap[chosen.Codec] = h
	}
	h.Observe(regret)

	t.mu.Lock()
	st := &t.st
	st.samples++
	st.cumRegret += regret
	st.lastRegret = regret
	st.window[st.windowNext] = regret
	st.windowNext++
	if st.windowNext == len(st.window) {
		st.windowNext = 0
		st.windowFull = true
	}
	if chosen.Arm == best.Arm {
		st.optimalHits++
		t.optimal.Inc()
	}
	t.codecStatsLocked(best.Codec).Best++
	cs := t.codecStatsLocked(chosen.Codec)
	cs.GapSum += regret
	cs.Gaps++
	cum := st.cumRegret
	windowed := st.windowedLocked()
	t.mu.Unlock()

	t.regretCum.Set(cum)
	t.regretWindow.Set(windowed)
	t.regretLast.Set(regret)
	t.ring.Record(obs.Event{
		Source: t.cfg.Source, Kind: "regret", ID: id,
		Arm: best.Arm, Codec: best.Codec, Reward: best.Reward,
		Value: regret,
	})
}

// codecStatsLocked returns the mutable per-codec ledger entry. mu held.
func (t *Tracker) codecStatsLocked(codec string) *CodecStats {
	cs, ok := t.st.codecs[codec]
	if !ok {
		cs = &CodecStats{}
		t.st.codecs[codec] = cs
	}
	return cs
}

// windowedLocked averages the populated window entries. mu held.
func (s *state) windowedLocked() float64 {
	n := s.windowNext
	if s.windowFull {
		n = len(s.window)
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.window[i]
	}
	return sum / float64(n)
}

// Snapshot copies the aggregate state. Safe from any goroutine; returns
// the zero Snapshot on nil.
func (t *Tracker) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	st := &t.st
	out := Snapshot{
		SampleEvery:      t.cfg.SampleEvery,
		Window:           t.cfg.Window,
		Decisions:        st.decisions,
		Samples:          st.samples,
		CumulativeRegret: st.cumRegret,
		WindowedRegret:   st.windowedLocked(),
		LastRegret:       st.lastRegret,
		OptimalHits:      st.optimalHits,
		ArmSwitches:      st.armSwitches,
		SinceSwitch:      st.sinceSwitch,
		HeldCodec:        st.heldCodec,
		Codecs:           make(map[string]CodecStats, len(st.codecs)),
	}
	for name, cs := range st.codecs {
		out.Codecs[name] = *cs
	}
	armSource := st.armSource
	t.mu.Unlock()
	if out.Samples > 0 {
		out.MeanRegret = out.CumulativeRegret / float64(out.Samples)
		out.OptimalRate = float64(out.OptimalHits) / float64(out.Samples)
	}
	if armSource != nil {
		// Called outside mu: the source takes the engine's policy locks.
		out.Arms = armSource()
	}
	return out
}
