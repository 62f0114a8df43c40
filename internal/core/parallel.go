package core

import (
	"context"
	"sync"

	"repro/internal/compress"
)

// Parallel segment-compression pipeline.
//
// The sequential online path interleaves two very different kinds of work:
// pure codec trials (compress / decompress a segment — all the CPU time)
// and stateful decisions (bandit select/update, energy and stats
// accounting — microseconds). The pipeline splits them: Workers goroutines
// run PrepareSegment, speculatively computing the codec trials the
// decision path is most likely to need, while one sequencer goroutine
// consumes prepared segments in submission order and runs ProcessPrepared.
//
// Because every trial is a pure function of the segment bytes and every
// bandit decision (and therefore every RNG draw) happens on the sequencer
// in arrival order, a run at Workers: k is byte-identical to Workers: 1 —
// same selected-codec sequence, same rewards, same stats — for any
// timing-independent objective. Speculation that guesses wrong only costs
// time: the sequencer recomputes the needed trial inline.
//
// This is the paper's §V-C scalability architecture applied to a single
// stream: one ingestion order, many compression cores. The older Pipeline
// type instead shards independent streams across share-nothing engines.

// PreparedSegment carries one segment plus speculatively computed codec
// trials. Produced by PrepareSegment (any goroutine), consumed by
// ProcessPrepared (decision goroutine only). The zero/nil value is valid
// and simply forces all trials inline. A PreparedSegment is consumed by
// ProcessPrepared: its trial buffers return to the shared pools there, so
// it must not be processed twice.
type PreparedSegment struct {
	values []float64
	label  int
	// target is the target ratio the lossy trials assumed; ProcessPrepared
	// drops them when the engine was retargeted in between.
	target float64
	// lossless memoizes trials by lossless arm index. A short slice, not a
	// map: at most speculativeArms entries, scanned linearly, and the
	// single backing allocation recycles cleanly.
	lossless []armLosslessTrial
	// minRatios holds every lossy arm's MinRatio probe (target-independent).
	minRatios []float64
	// lossy memoizes trials by lossy arm index at target.
	lossy []armLossyTrial
}

// armLosslessTrial pairs a lossless trial with the arm it speculates for.
type armLosslessTrial struct {
	arm int
	t   losslessTrial
}

// armLossyTrial pairs a lossy trial with its arm.
type armLossyTrial struct {
	arm int
	t   lossyTrial
}

// Values returns the raw segment the preparation wraps.
func (p *PreparedSegment) Values() []float64 { return p.values }

// Label returns the segment's class label.
func (p *PreparedSegment) Label() int { return p.label }

func (p *PreparedSegment) losslessTrial(arm int) (losslessTrial, bool) {
	if p == nil {
		return losslessTrial{}, false
	}
	for i := range p.lossless {
		if p.lossless[i].arm == arm {
			return p.lossless[i].t, true
		}
	}
	return losslessTrial{}, false
}

func (p *PreparedSegment) minRatioProbes() []float64 {
	if p == nil {
		return nil
	}
	return p.minRatios
}

func (p *PreparedSegment) lossyTrialFor(arm int) (lossyTrial, bool) {
	if p == nil {
		return lossyTrial{}, false
	}
	for i := range p.lossy {
		if p.lossy[i].arm == arm {
			return p.lossy[i].t, true
		}
	}
	return lossyTrial{}, false
}

// releaseTrials recycles every speculative buffer that did not escape
// through the decision: losing lossless encodings return to the pool, the
// winning lossless arm's wrapper is handed off (its bytes left with the
// caller), and every lossy decode slice is recycled — the lossy winner's
// encoding has no pooled wrapper, and its decode is only read inside
// process. Must run after process returns: the oracle's observe pass is
// the last reader of prepared trials. Idempotent.
//
// adaedge:decision-goroutine
func (p *PreparedSegment) releaseTrials(e *OnlineEngine, res Result, err error) {
	if p == nil {
		return
	}
	for i := range p.lossless {
		at := &p.lossless[i]
		if err == nil && !res.Lossy && e.losslessNames[at.arm] == res.Codec {
			at.t.handOff()
			continue
		}
		at.t.release()
	}
	for i := range p.lossy {
		p.lossy[i].t.releaseDecoded()
	}
}

// speculativeArms is how many of the top estimated arms a worker trials
// per phase. More arms raise the prediction hit rate on exploration steps
// at the cost of extra speculative compute; 2 covers the greedy pick plus
// the runner-up that takes over after a close update.
const speculativeArms = 2

// PrepScratch holds a worker's reusable allocations across PrepareSegment
// calls: the estimate snapshots a worker takes per segment otherwise
// allocate two slices each, which at pipeline rates dominates the
// worker-side garbage. One scratch per goroutine — it must not be shared.
type PrepScratch struct {
	est []float64
}

// PrepareSegment speculatively runs the codec trials the decision path is
// most likely to consume for this segment: the top estimated lossless arms
// (when lossless looks viable), every lossy arm's MinRatio feasibility
// probe, and the greedy-predicted lossy arm's compression at the current
// target. It only reads engine state through thread-safe accessors, so any
// number of workers may call it while the decision goroutine runs
// ProcessPrepared. Predictions are hints: a wrong guess never changes the
// outcome, only where the trial is computed.
func (e *OnlineEngine) PrepareSegment(values []float64, label int) *PreparedSegment {
	return e.PrepareSegmentScratch(values, label, nil)
}

// PrepareSegmentScratch is PrepareSegment reusing scratch's buffers for
// the policy estimate snapshots (nil scratch allocates fresh ones).
func (e *OnlineEngine) PrepareSegmentScratch(values []float64, label int, scratch *PrepScratch) *PreparedSegment {
	if scratch == nil {
		scratch = &PrepScratch{}
	}
	target := e.EffectiveTarget()
	p := &PreparedSegment{values: values, label: label, target: target}
	if len(values) == 0 {
		return p
	}
	if target >= 1 || e.losslessViable.Load() {
		p.lossless = make([]armLosslessTrial, 0, speculativeArms)
		scratch.est = e.losslessMAB.EstimatesInto(scratch.est)
		for _, arm := range topArms(scratch.est, speculativeArms) {
			codec, ok := e.reg.Lookup(e.losslessNames[arm])
			if !ok {
				continue
			}
			p.lossless = append(p.lossless, armLosslessTrial{arm: arm, t: runLosslessTrial(codec, values)})
		}
	}
	if target < 1 {
		p.minRatios = make([]float64, len(e.lossyNames))
		feasible := make([]bool, len(e.lossyNames))
		any := false
		for i, name := range e.lossyNames {
			c, _ := e.reg.Lookup(name)
			p.minRatios[i] = c.(compress.LossyCodec).MinRatio(values)
			if p.minRatios[i] <= target {
				feasible[i] = true
				any = true
			}
		}
		if any {
			scratch.est = e.lossyMAB.EstimatesInto(scratch.est)
			if arm := bestAllowedArm(scratch.est, feasible); arm >= 0 {
				c, _ := e.reg.Lookup(e.lossyNames[arm])
				p.lossy = append(p.lossy, armLossyTrial{arm: arm, t: runLossyTrial(c.(compress.LossyCodec), values, target)})
			}
		}
	}
	return p
}

// topArms returns the indices of the k largest estimates, descending, with
// ties broken toward lower indices. Deterministic and RNG-free: prediction
// must not disturb the policies' random streams.
func topArms(est []float64, k int) []int {
	if k > len(est) {
		k = len(est)
	}
	out := make([]int, 0, k)
	used := make([]bool, len(est))
	for len(out) < k {
		best := -1
		for i, v := range est {
			if used[i] {
				continue
			}
			if best < 0 || v > est[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		out = append(out, best)
	}
	return out
}

// bestAllowedArm returns the allowed index with the highest estimate
// (ties toward lower indices), or -1 when none is allowed.
func bestAllowedArm(est []float64, allowed []bool) int {
	best := -1
	for i, v := range est {
		if !allowed[i] {
			continue
		}
		if best < 0 || v > est[best] {
			best = i
		}
	}
	return best
}

// parJob is one submitted segment travelling through the pipeline. done is
// buffered so the worker's single send never blocks.
type parJob struct {
	values []float64
	label  int
	done   chan *PreparedSegment
}

// OnlineParallel drives one OnlineEngine with a bounded worker pool for
// codec trials and a single in-order sequencer for decisions. Submission
// order defines arrival order: results, bandit rewards, stats and egress
// all follow it, preserving stream semantics.
//
// Usage: Start, Submit from any number of goroutines, then Close to drain.
// The engine's other readers (Stats, estimates) may be polled throughout.
type OnlineParallel struct {
	eng     *OnlineEngine
	workers int
	order   chan *parJob
	work    chan *parJob

	onResult func(Result, compress.Encoded, error)

	workerWG sync.WaitGroup
	seqDone  chan struct{}
	started  bool

	mu   sync.Mutex
	errs []error // guarded by mu
}

// NewOnlineParallel builds a pipeline over an existing engine. workers <= 0
// selects the engine's Config.Workers. The engine must not be driven by
// anyone else while the pipeline runs.
func NewOnlineParallel(eng *OnlineEngine, workers int) *OnlineParallel {
	if workers <= 0 {
		workers = eng.Workers()
	}
	if workers < 1 {
		workers = 1
	}
	depth := 4 * workers
	return &OnlineParallel{
		eng:     eng,
		workers: workers,
		order:   make(chan *parJob, depth),
		work:    make(chan *parJob, depth),
		seqDone: make(chan struct{}),
	}
}

// Engine exposes the wrapped engine (stats, estimates, retargeting between
// runs).
func (p *OnlineParallel) Engine() *OnlineEngine { return p.eng }

// Workers returns the trial-worker count.
func (p *OnlineParallel) Workers() int { return p.workers }

// OnResult registers a callback invoked by the sequencer, in submission
// order, for every segment (err non-nil for failed ones). Must be set
// before Start; the callback runs on the sequencer goroutine, so it also
// serializes egress — Send to an uplink here without extra locking.
func (p *OnlineParallel) OnResult(fn func(Result, compress.Encoded, error)) {
	if p.started {
		panic("core: OnResult after Start")
	}
	p.onResult = fn
}

// Start launches the trial workers and the sequencer. Cancelling ctx
// abandons segments whose trials have not started; already-submitted work
// drains with a ctx error recorded per abandoned segment.
func (p *OnlineParallel) Start(ctx context.Context) {
	p.started = true
	for i := 0; i < p.workers; i++ {
		p.workerWG.Add(1)
		go func() {
			defer p.workerWG.Done()
			scratch := &PrepScratch{} // per-worker, never shared
			for job := range p.work {
				select {
				case <-ctx.Done():
					job.done <- nil // sequencer records ctx.Err
				default:
					job.done <- p.eng.PrepareSegmentScratch(job.values, job.label, scratch)
				}
			}
		}()
	}
	// The sequencer IS the decision goroutine while the pipeline runs.
	// adaedge:decision-goroutine
	go func() {
		defer close(p.seqDone)
		for job := range p.order {
			prep := <-job.done
			if prep == nil {
				err := ctx.Err()
				p.recordErr(err)
				if p.onResult != nil {
					p.onResult(Result{}, compress.Encoded{}, err)
				}
				continue
			}
			res, enc, err := p.eng.ProcessPrepared(prep)
			if err != nil {
				p.recordErr(err)
			}
			if p.onResult != nil {
				p.onResult(res, enc, err)
			}
		}
	}()
}

// Submit enqueues one segment. Blocks when the pipeline is full (bounded
// memory); safe from multiple goroutines, though arrival order is then
// whichever interleaving the senders produce. Panics after Close.
func (p *OnlineParallel) Submit(values []float64, label int) {
	job := &parJob{values: values, label: label, done: make(chan *PreparedSegment, 1)}
	p.order <- job
	p.work <- job
}

// Close signals end of stream, waits for every submitted segment to be
// decided in order, and returns the first processing error, if any.
func (p *OnlineParallel) Close() error {
	close(p.order)
	close(p.work)
	p.workerWG.Wait()
	<-p.seqDone
	errs := p.Errors()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

func (p *OnlineParallel) recordErr(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	p.errs = append(p.errs, err)
	p.mu.Unlock()
}

// Errors returns all processing errors in arrival order.
func (p *OnlineParallel) Errors() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]error, len(p.errs))
	copy(out, p.errs)
	return out
}

// RunOnlineSegments pushes segments through eng honoring its Workers
// setting: a plain sequential loop at Workers: 1 (today's default path),
// the OnlineParallel pipeline otherwise. Results come back in input order;
// failed segments hold a zero Result. The first error is returned after
// the whole stream has been attempted, matching the pipeline's
// keep-going semantics. The caller's goroutine is the decision goroutine
// in sequential mode; in parallel mode the sequencer takes over.
//
// adaedge:decision-goroutine
func RunOnlineSegments(ctx context.Context, eng *OnlineEngine, segs []LabeledSegment) ([]Result, error) {
	if eng.Workers() <= 1 {
		results := make([]Result, 0, len(segs))
		var first error
		for _, s := range segs {
			res, enc, err := eng.Process(s.Values, s.Label)
			if err != nil && first == nil {
				first = err
			}
			results = append(results, res)
			// Only the Result survives this loop; hand the encoding's
			// buffer back so steady-state segments allocate nothing.
			RecycleEncoded(enc)
		}
		return results, first
	}
	par := NewOnlineParallel(eng, 0)
	results := make([]Result, 0, len(segs))
	par.OnResult(func(res Result, enc compress.Encoded, _ error) {
		results = append(results, res)
		RecycleEncoded(enc)
	})
	par.Start(ctx)
	for _, s := range segs {
		par.Submit(s.Values, s.Label)
	}
	err := par.Close()
	return results, err
}
