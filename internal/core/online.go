package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bandit"
	"repro/internal/compress"
	"repro/internal/sim"
)

// OnlineEngine implements AdaEdge's online mode (paper §IV-C1): the edge
// node is continuously connected and every segment must leave through a
// link of capacity B while being ingested at rate I, yielding the target
// compression ratio R = B/(64×I). Lossless compression is preferred; when
// R is infeasible losslessly, a dedicated lossy-selection bandit takes
// over, optimizing the workload target.
//
// Concurrency contract: Process mutates bandit and accounting state and
// must be called from a single goroutine at a time (the "decision
// goroutine"). Retarget, TargetRatio, Stats and LossyEstimates are safe
// from any goroutine while it runs. More cores are used by running more
// engines, one per goroutine, never by sharing one.
type OnlineEngine struct {
	cfg  Config // never written after construction
	reg  *compress.Registry
	eval *Evaluator

	// link is the uplink the next segment is decided for. Retarget
	// publishes a new one from any goroutine; Process loads it once per
	// segment.
	link atomic.Pointer[onlineLink]
	// seen is the link the previous segment was decided for; a different
	// pointer at the next load means Retarget ran in between.
	seen *onlineLink

	losslessNames []string
	lossyNames    []string
	losslessMAB   bandit.Policy
	lossyMAB      bandit.Policy

	nextID         uint64
	losslessFails  int
	sinceProbe     int
	probeInterval  int // losslessProbeInterval; tests shorten it
	losslessViable bool

	costFn func(op, codec string, points int) float64

	// om caches the obs handles; nil when Config.Obs is unset. All event
	// emission happens on the decision goroutine (see internal/core/obs.go).
	om *onlineMetrics

	// qo is the decision-quality oracle; nil when Config.Quality is unset
	// (see internal/core/quality.go).
	qo *qualityOracle

	// ctx is the contextual prediction/deadline layer; nil unless the
	// config selects the "contextual" policy or sets a Deadline (see
	// internal/core/contextual.go).
	ctx *contextualCtl

	// Decision-goroutine-only trial scratch, reused across segments like
	// the offline engine's: armMask backs the selection mask, trialEnc every
	// trial's encode and trialDec the lossy trial's decode. One trial is
	// live at a time: a lossless loser is done with before the next arm
	// runs, and the winner is carved into the slab before Process returns.
	// So every trial appends into the same buffers, and none escapes.
	armMask  []bool
	trialEnc []byte
	trialDec []float64
	// slab is the payload slab Process carves its returned encodings from
	// (see carve); decision goroutine only.
	slab []byte

	statsMu sync.Mutex
	stats   OnlineStats // guarded by statsMu
}

// OnlineStats aggregates stream-level outcomes.
type OnlineStats struct {
	// Segments is the number processed.
	Segments int
	// LosslessSegments and LossySegments partition them.
	LosslessSegments, LossySegments int
	// TotalRawBytes and TotalCompressedBytes accumulate sizes.
	TotalRawBytes, TotalCompressedBytes int64
	// AccuracyLossSum accumulates per-segment accuracy loss.
	AccuracyLossSum float64
	// BandwidthViolations counts segments whose egress exceeded the link
	// capacity at the configured ingest rate.
	BandwidthViolations int
	// CodecUse counts selections per codec.
	CodecUse map[string]int
	// DeadlineRejects counts arms the deadline gate masked out of
	// selection; DeadlineFallbacks counts segments forced onto the
	// fastest predicted arm because no feasible arm remained;
	// DeadlineMisses counts segments whose selected arm's cost-model
	// latency exceeded the deadline anyway. All 0 when Config.Deadline
	// is unset.
	DeadlineRejects, DeadlineFallbacks, DeadlineMisses int
	// DeadlineViolations counts selections of a predicted-infeasible arm
	// outside the explicit fallback path. The gate's invariant is that
	// this stays 0; tests and the BENCH deadline cell assert it.
	DeadlineViolations int
}

// MeanAccuracyLoss returns the average per-segment workload accuracy loss.
func (s OnlineStats) MeanAccuracyLoss() float64 {
	if s.Segments == 0 {
		return 0
	}
	return s.AccuracyLossSum / float64(s.Segments)
}

// OverallRatio returns total compressed bytes over total raw bytes.
func (s OnlineStats) OverallRatio() float64 {
	if s.TotalRawBytes == 0 {
		return 0
	}
	return float64(s.TotalCompressedBytes) / float64(s.TotalRawBytes)
}

// onlineLink is one published uplink: its capacity (0 when only
// TargetRatioOverride is configured) and the target ratio the engine
// compresses toward on it. Immutable once published.
type onlineLink struct {
	bw     sim.Bandwidth
	target float64
}

// losslessProbeInterval is how often, in segments, a stream found
// lossless-infeasible re-probes with one trial of the lossless policy's
// own pick (DESIGN.md §5, "Lossless viability").
const losslessProbeInterval = 50

// NewOnlineEngine builds the engine. The target ratio comes from
// cfg.TargetRatioOverride if positive, else from R = B/(64×I).
func NewOnlineEngine(cfg Config) (*OnlineEngine, error) {
	cfg = cfg.withDefaults(true)
	if err := validatePolicy(cfg); err != nil {
		return nil, err
	}
	eval, err := NewEvaluator(cfg.Objective)
	if err != nil {
		return nil, err
	}
	target := cfg.TargetRatioOverride
	if target <= 0 {
		if cfg.Bandwidth <= 0 {
			return nil, fmt.Errorf("core: online mode requires Bandwidth or TargetRatioOverride")
		}
		target = sim.TargetRatio(cfg.IngestRate, cfg.Bandwidth)
	}
	if target > 1 {
		target = 1
	}
	e := &OnlineEngine{
		cfg:            cfg,
		reg:            cfg.Registry,
		eval:           eval,
		seen:           &onlineLink{bw: cfg.Bandwidth, target: target},
		losslessNames:  armNames(cfg.LosslessArms, cfg.Registry.Lossless()),
		lossyNames:     armNames(cfg.LossyArms, cfg.Registry.Lossy()),
		probeInterval:  losslessProbeInterval,
		losslessViable: true,
		stats:          OnlineStats{CodecUse: make(map[string]int)},
	}
	e.armMask = make([]bool, max(len(e.losslessNames), len(e.lossyNames)))
	e.link.Store(e.seen)
	e.losslessMAB = newPolicy(cfg, len(e.losslessNames), 101, "bandit.online.lossless")
	e.lossyMAB = newPolicy(cfg, len(e.lossyNames), 202, "bandit.online.lossy")
	e.om = newOnlineMetrics(cfg.Obs, cfg.DeviceID)
	e.costFn = cfg.CodecCost
	e.ctx = newContextualCtl(cfg, e)
	e.qo, err = newQualityOracle(cfg)
	if err != nil {
		return nil, err
	}
	if e.qo != nil {
		e.qo.tracker.SetArmSource(e.armStats)
	}
	return e, nil
}

// TargetRatio returns the target ratio of the last link published, which
// the next segment compresses toward. Safe from any goroutine.
func (e *OnlineEngine) TargetRatio() float64 { return e.link.Load().target }

// Retarget moves the engine to a new link capacity — the paper's
// variable-bandwidth case (§IV-A2): the target becomes R = B/(64×I) for
// the new B, and the deadline gate's uplink term and the
// BandwidthViolations check follow the same link. Safe from any goroutine:
// the link is published atomically and takes effect at the next segment,
// which also re-probes lossless viability from scratch because a looser
// target may make lossless feasible again. The bandit estimates are kept
// (data statistics did not change, only the constraint). A dead link
// (bw <= 0) is ignored: it has no ratio to compress to, and the caller
// stores rather than sends while it lasts.
func (e *OnlineEngine) Retarget(bw sim.Bandwidth) {
	if bw <= 0 {
		return
	}
	e.link.Store(&onlineLink{bw: bw, target: sim.TargetRatio(e.cfg.IngestRate, bw)})
}

// Stats returns a copy of the stream statistics. Safe to call while
// another goroutine is processing segments; the returned CodecUse map is
// a private copy.
func (e *OnlineEngine) Stats() OnlineStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	out := e.stats
	out.CodecUse = make(map[string]int, len(e.stats.CodecUse))
	for k, v := range e.stats.CodecUse {
		out.CodecUse[k] = v
	}
	return out
}

// ratioSlack tolerates rounding in codec size targeting.
const ratioSlack = 1e-9

// Process compresses one segment (a fixed-size array of points, paper
// §IV-C) and returns the outcome with its encoding, which the caller
// transmits or stores; the engine only accounts for it.
//
// The encoding's bytes are the caller's: the engine never writes them
// again, and an append to them reallocates instead of running into the
// next payload. They share a 16 KiB slab with the payloads decided around
// them, though, and a kept payload keeps its slab alive. A caller that
// drops payloads in about the order it got them, as an uplink spool does,
// frees whole slabs; one that keeps a sparse few for a long time holds
// their slabs and should clone them.
func (e *OnlineEngine) Process(values []float64, label int) (Result, compress.Encoded, error) {
	if len(values) == 0 {
		return Result{}, compress.Encoded{}, compress.ErrEmptyInput
	}
	id := e.nextID
	e.nextID++
	// One link per segment, even if a concurrent Retarget lands
	// mid-decision: its target, the deadline gate's uplink term and the
	// bandwidth check all read this load.
	link := e.link.Load()
	if link != e.seen {
		// Retarget ran since the last segment: re-probe lossless.
		e.seen = link
		e.losslessViable, e.losslessFails, e.sinceProbe = true, 0, 0
	}
	target := link.target
	// Span lifecycle: the ingest stage opens the segment's span.
	e.om.spanBegin(id, len(values))
	// Contextual layer: features, per-arm predictions, policy priors and
	// deadline feasibility for this segment (no-op when disabled).
	e.ctx.begin(values, link.bw)
	if e.ctx != nil {
		e.om.spanFeatures()
	}

	// Phase 1: lossless, preferred whenever it can meet R (paper: "We
	// choose the best lossless compression by default").
	if e.tryLossless(target) {
		res, enc, ok := e.processLossless(id, values, target)
		if ok {
			e.account(res, link.bw, len(values))
			e.om.decision(res, target)
			e.qo.observe(e, res, values, target)
			return res, enc, nil
		}
	}

	// Phase 2: lossy selection toward the target ratio.
	res, enc, err := e.processLossy(id, values, target)
	if err != nil {
		return Result{}, compress.Encoded{}, err
	}
	e.account(res, link.bw, len(values))
	e.om.decision(res, target)
	e.qo.observe(e, res, values, target)
	return res, enc, nil
}

// LabeledSegment is one unit of online work: a fixed-size segment plus its
// (optional) class label.
type LabeledSegment struct {
	Values []float64
	Label  int
}

// RunOnlineSegments pushes segments through eng on the caller's goroutine
// and returns their Results in input order; failed segments hold a zero
// Result. The whole stream is attempted and the first error returned.
func RunOnlineSegments(eng *OnlineEngine, segs []LabeledSegment) ([]Result, error) {
	results := make([]Result, 0, len(segs))
	var first error
	for _, s := range segs {
		res, _, err := eng.Process(s.Values, s.Label)
		if err != nil && first == nil {
			first = err
		}
		results = append(results, res)
	}
	return results, first
}

// tryLossless decides whether to attempt lossless compression this
// segment. After repeated infeasibility the engine mostly skips the
// attempt, re-probing periodically so it can recover if the data becomes
// more compressible.
func (e *OnlineEngine) tryLossless(target float64) bool {
	if target >= 1 {
		return true
	}
	if e.losslessViable {
		return true
	}
	e.sinceProbe++
	if e.sinceProbe >= e.probeInterval {
		e.sinceProbe = 0
		return true
	}
	return false
}

// processLossless attempts lossless compression under the target ratio.
// Infeasibility is a property of the *best* lossless codec, not of one
// exploratory pick, so while lossless is viable a miss retries the
// remaining arms before concluding the segment cannot be handled
// losslessly. A periodic re-probe of a non-viable stream only asks whether
// the data has turned compressible, and the policy's own pick answers
// that: one trial, whose miss costs one encode instead of the whole arm
// list (DESIGN.md §5, "Lossless viability").
func (e *OnlineEngine) processLossless(id uint64, values []float64, target float64) (Result, compress.Encoded, bool) {
	allowed := e.mask(len(e.losslessNames), true)
	if !e.ctx.maskLossless(allowed) {
		// Every lossless arm misses the predicted deadline; the lossy
		// phase is the degradation path, so skip without recording a
		// viability failure (the data's compressibility did not change).
		return Result{}, compress.Encoded{}, false
	}
	attempts := len(e.losslessNames)
	if target < 1 && !e.losslessViable {
		attempts = 1
	}
	for ; attempts > 0; attempts-- {
		arm := e.losslessMAB.Select(allowed)
		if arm < 0 {
			break
		}
		allowed[arm] = false
		name := e.losslessNames[arm]
		// The cost-model duration advances the span's virtual time.
		cost := e.costFn("encode", name, len(values))
		codec, _ := e.reg.Lookup(name)
		start := clockIf(e.om != nil)
		t := runLosslessTrial(e.trialEnc, codec, values)
		e.om.trial(name, start)
		e.om.spanTrial(arm, name, cost)
		if t.err != nil {
			e.losslessMAB.Update(arm, 0)
			continue
		}
		e.trialEnc = t.enc.Data
		ratio := t.enc.Ratio()
		// Lossless selection optimizes compressed size regardless of the
		// workload target: task accuracy is unaffected (paper §IV-C1).
		e.losslessMAB.Update(arm, 1-minf(ratio, 1))
		e.ctx.observeLossless(arm, len(values), ratio, 1-minf(ratio, 1))
		if target < 1 && ratio > target+ratioSlack {
			continue
		}
		e.losslessFails = 0
		e.losslessViable = true
		e.ctx.chosen(id, arm, len(values), false, ratio)
		e.om.spanSelect(arm, name)
		res := Result{
			SegmentID: id, Codec: name, Lossy: false, Ratio: ratio,
			Reward: 1 - minf(ratio, 1),
		}
		// The winner's bytes move into the payload slab; the next trial
		// overwrites the trial buffer.
		enc := compress.Encoded{Codec: t.enc.Codec, Data: e.carve(t.enc.Data), N: t.enc.N}
		return res, enc, true
	}
	e.losslessFails++
	if e.losslessFails >= 2 {
		e.losslessViable = false
	}
	return Result{}, compress.Encoded{}, false
}

// processLossy runs the lossy-selection phase toward the target ratio.
func (e *OnlineEngine) processLossy(id uint64, values []float64, target float64) (Result, compress.Encoded, error) {
	allowed := e.mask(len(e.lossyNames), false)
	feasible := false
	for i, name := range e.lossyNames {
		c, _ := e.reg.Lookup(name)
		if c.(compress.LossyCodec).MinRatio(values) <= target {
			allowed[i] = true
			feasible = true
		}
	}
	if !feasible {
		e.om.noFeasible(id, target)
		return Result{}, compress.Encoded{}, ErrNoFeasibleCodec
	}
	// Deadline gate over the ratio-feasible arms; guarantees at least one
	// arm stays allowed (the fastest predicted one, as a fallback).
	e.ctx.applyDeadline(id, allowed)
	arm := e.lossyMAB.Select(allowed)
	name := e.lossyNames[arm]
	// The cost-model encode time advances the span's virtual time and is
	// the speed reward's T_c.
	cost := e.costFn("encode", name, len(values))

	codec, _ := e.reg.Lookup(name)
	start := clockIf(e.om != nil)
	t := runLossyTrial(e.trialEnc, e.trialDec, codec.(compress.LossyCodec), values, target)
	e.om.trial(name, start)
	e.om.spanTrial(arm, name, cost)
	if t.err != nil {
		e.lossyMAB.Update(arm, 0)
		return Result{}, compress.Encoded{}, fmt.Errorf("core: %s at ratio %.3f: %w", name, target, t.err)
	}
	if t.decErr != nil {
		e.lossyMAB.Update(arm, 0)
		return Result{}, compress.Encoded{}, t.decErr
	}
	// The encoding feeds the payload copy below, the decode slice the
	// observation.
	e.trialEnc, e.trialDec = t.enc.Data, t.decoded
	obs := Observation{Raw: values, Decoded: t.decoded, CompressedBytes: t.enc.Size(), Duration: costDuration(cost)}
	reward, accLoss := e.eval.Score(obs)
	e.lossyMAB.Update(arm, reward)
	e.ctx.observeLossy(arm, len(values), t.enc.Ratio(), reward)
	e.ctx.chosen(id, arm, len(values), true, t.enc.Ratio())
	e.om.spanSelect(arm, name)
	enc := compress.Encoded{Codec: t.enc.Codec, Data: e.carve(t.enc.Data), N: t.enc.N}
	return Result{
		SegmentID: id, Codec: name, Lossy: true, Ratio: t.enc.Ratio(),
		Reward: reward, AccuracyLoss: accLoss,
	}, enc, nil
}

// payloadSlabBytes is the size of the slabs online payloads are carved
// from, exactly one of the allocator's size classes; it holds some 180
// edge_ml payloads. A payload larger than an eighth of a slab gets its own
// allocation, which bounds what a slab leaves unused at its tail.
const payloadSlabBytes = 16 << 10

// carve copies b into the payload slab's tail and returns the copy, capped
// at its length. Payloads leave in the order they are carved (an uplink
// spool drops them by ID), so a slab's payloads die together: a full
// slab is replaced and left to the garbage collector, with no free list.
func (e *OnlineEngine) carve(b []byte) []byte {
	n := len(b)
	if n > payloadSlabBytes/8 {
		return append([]byte(nil), b...)
	}
	if cap(e.slab)-len(e.slab) < n {
		e.slab = make([]byte, 0, payloadSlabBytes)
	}
	off := len(e.slab)
	e.slab = append(e.slab, b...)
	return e.slab[off : off+n : off+n]
}

// losslessTrial is the outcome of one pure lossless codec attempt.
type losslessTrial struct {
	enc compress.Encoded
	err error
}

// runLosslessTrial compresses values with one codec into dst's backing
// array. Pure: no engine state is read or written, so the regret oracle
// reruns it into buffers of its own and gets the decision path's bytes.
func runLosslessTrial(dst []byte, codec compress.Codec, values []float64) losslessTrial {
	enc, err := codec.CompressInto(dst, values)
	return losslessTrial{enc: enc, err: err}
}

// lossyTrial is the outcome of one pure lossy codec attempt at a target
// ratio, including the decode needed for reward evaluation.
type lossyTrial struct {
	enc     compress.Encoded
	err     error
	decoded []float64
	decErr  error
}

// runLossyTrial compresses values toward ratio into encDst's backing array
// and decodes the result into decDst's. Pure, like runLosslessTrial.
func runLossyTrial(encDst []byte, decDst []float64, lc compress.LossyCodec, values []float64, ratio float64) lossyTrial {
	enc, err := lc.CompressRatioInto(encDst, values, ratio)
	if err != nil {
		return lossyTrial{err: err}
	}
	decoded, decErr := lc.DecompressInto(decDst, enc)
	return lossyTrial{enc: enc, decoded: decoded, decErr: decErr}
}

// mask returns the arm mask's first n entries, each set to fill.
func (e *OnlineEngine) mask(n int, fill bool) []bool {
	m := e.armMask[:n]
	for i := range m {
		m[i] = fill
	}
	return m
}

// account folds one decided segment of points values into the stream
// statistics; bw is the link the segment was decided for.
func (e *OnlineEngine) account(res Result, bw sim.Bandwidth, points int) {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.stats.Segments++
	if res.Lossy {
		e.stats.LossySegments++
	} else {
		e.stats.LosslessSegments++
	}
	raw := int64(8 * points)
	e.stats.TotalRawBytes += raw
	e.stats.TotalCompressedBytes += int64(float64(raw) * res.Ratio)
	e.stats.AccuracyLossSum += res.AccuracyLoss
	e.stats.CodecUse[res.Codec]++
	// Egress feasibility: at ingest rate I the per-second egress is
	// I × 8 × ratio bytes.
	if bw > 0 && !bw.Carries(e.cfg.IngestRate*8*res.Ratio) {
		e.stats.BandwidthViolations++
		e.om.violation()
	}
	if e.ctx != nil {
		e.stats.DeadlineRejects += e.ctx.segRejects
		if e.ctx.segFallback {
			e.stats.DeadlineFallbacks++
		}
		if e.ctx.segMiss {
			e.stats.DeadlineMisses++
		}
		if e.ctx.segViolation {
			e.stats.DeadlineViolations++
		}
	}
}

// LossyEstimates exposes the lossy bandit's per-codec value estimates
// (diagnostics and experiment reporting).
func (e *OnlineEngine) LossyEstimates() map[string]float64 {
	est := e.lossyMAB.Estimates()
	out := make(map[string]float64, len(est))
	for i, name := range e.lossyNames {
		out[name] = est[i]
	}
	return out
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
