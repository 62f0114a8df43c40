package core

import (
	"context"
	"sync"
)

// LabeledSegment is one unit of pipeline work: a fixed-size segment plus
// its (optional) class label.
type LabeledSegment struct {
	Values []float64
	Label  int
}

// Pipeline runs online compression selection across multiple workers, the
// configuration behind the paper's scalability claim (§V-C: "AdaEdge
// successfully managed an ingestion rate of approximately 8 million points
// per second using 8 threads"). Each worker owns an independent engine —
// sharing nothing, as concurrent sensors' signals are independent — and
// stats are merged at the end.
type Pipeline struct {
	engines []*OnlineEngine
	jobs    chan LabeledSegment
	ctx     context.Context // Start's; Submit gives up when it is cancelled
	wg      sync.WaitGroup
	mu      sync.Mutex
	errs    []error // guarded by mu
}

// NewPipeline builds a pipeline of max(cfg.Workers, 1) engines with
// per-worker deterministic seeds derived from cfg.Seed.
func NewPipeline(cfg Config) (*Pipeline, error) {
	workers := max(cfg.Workers, 1)
	// Four queued segments per worker keep every engine fed while Submit's
	// caller generates the next one, and bound what a cancel strands.
	p := &Pipeline{jobs: make(chan LabeledSegment, 4*workers)}
	for i := 0; i < workers; i++ {
		wcfg := cfg
		wcfg.Seed = cfg.Seed + int64(i)*1000
		// Each worker needs its own registry: codec instances are
		// stateless but cheap, and sharing-nothing avoids any contention.
		wcfg.Registry = nil
		e, err := NewOnlineEngine(wcfg)
		if err != nil {
			return nil, err
		}
		p.engines = append(p.engines, e)
	}
	return p, nil
}

// Start launches the workers. Submit segments with Submit, then call
// Close/Wait.
func (p *Pipeline) Start(ctx context.Context) {
	p.ctx = ctx
	for _, e := range p.engines {
		p.wg.Add(1)
		// Share-nothing workers: each owns an engine outright, so each
		// worker is its engine's decision goroutine.
		// adaedge:decision-goroutine
		go func(eng *OnlineEngine) {
			defer p.wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case job, ok := <-p.jobs:
					if !ok {
						return
					}
					if _, _, err := eng.Process(job.Values, job.Label); err != nil {
						p.mu.Lock()
						p.errs = append(p.errs, err)
						p.mu.Unlock()
					}
				}
			}
		}(e)
	}
}

// Submit enqueues one segment; blocks while the queue is full. Once the
// Start context is cancelled the workers are gone and the queue no longer
// drains, so Submit returns the context's error instead of blocking. Call
// after Start.
func (p *Pipeline) Submit(job LabeledSegment) error {
	// Checked first so a cancelled pipeline refuses every segment, not
	// just the ones select happens to route to Done.
	if err := p.ctx.Err(); err != nil {
		return err
	}
	select {
	case <-p.ctx.Done():
		return p.ctx.Err()
	case p.jobs <- job:
		return nil
	}
}

// Close signals that no more work is coming and waits for the workers.
func (p *Pipeline) Close() {
	close(p.jobs)
	p.wg.Wait()
}

// Errors returns the processing errors collected across workers.
func (p *Pipeline) Errors() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]error, len(p.errs))
	copy(out, p.errs)
	return out
}

// Stats merges all workers' statistics.
func (p *Pipeline) Stats() OnlineStats {
	merged := OnlineStats{CodecUse: make(map[string]int)}
	for _, e := range p.engines {
		merged.Add(e.Stats())
	}
	return merged
}

// Workers returns the number of workers.
func (p *Pipeline) Workers() int { return len(p.engines) }

// RunOnlineSegments pushes segments through eng on the caller's goroutine
// and returns their Results in input order; failed segments hold a zero
// Result. The whole stream is attempted and the first error returned.
//
// adaedge:decision-goroutine
func RunOnlineSegments(eng *OnlineEngine, segs []LabeledSegment) ([]Result, error) {
	results := make([]Result, 0, len(segs))
	var first error
	for _, s := range segs {
		res, enc, err := eng.Process(s.Values, s.Label)
		if err != nil && first == nil {
			first = err
		}
		results = append(results, res)
		// Only the Result survives this loop; hand the encoding's buffer
		// back so steady-state segments allocate nothing.
		RecycleEncoded(enc)
	}
	return results, first
}
