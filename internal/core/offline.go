package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bandit"
	"repro/internal/compress"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

// OfflineEngine implements AdaEdge's offline mode (paper §IV-C2): the edge
// node has no egress link, so ingested data must keep evolving within the
// storage budget. Segments are first compressed losslessly; when usage
// crosses the recoding threshold θ, the least-recently-used segments are
// recoded to roughly half their size, with a per-ratio-range bandit pool
// choosing the lossy codec that best preserves the workload target.
//
// Concurrency contract: Ingest (and Query/QuerySegment, which reorder the
// recoding policy) must run on a single goroutine at a time. Stats,
// Snapshot, Clock and Storage are safe to poll concurrently with ingestion
// (see DESIGN.md §7).
type OfflineEngine struct {
	cfg  Config
	reg  *compress.Registry
	eval *Evaluator

	losslessNames []string
	lossyNames    []string
	// The arms' codecs, resolved from the registry once: lossless[i] is
	// losslessNames[i], lossy[i] is lossyNames[i], and recoders[i] is
	// lossy[i] as a Recoder, nil when it is not one.
	lossless []compress.Codec
	lossy    []compress.LossyCodec
	recoders []compress.Recoder
	// fallback is the registry's "rrdsample", the last resort when no arm
	// can reach a recode's target; nil when the registry has none.
	fallback    compress.LossyCodec
	losslessMAB bandit.Policy
	lossyPool   *bandit.Pool

	storage *sim.Storage
	pool    *store.Pool
	clock   *sim.Clock

	nextID       uint64
	recodeBudget float64 // virtual seconds available to the recoder

	// om caches the obs handles; nil when Config.Obs is unset. Events are
	// emitted on the ingest goroutine only (see internal/core/obs.go).
	om *offlineMetrics

	// Ingest-goroutine-only encode/decode/mask scratch, reused across
	// segments so the steady-state ingest and recoding loops stop
	// allocating per segment and per victim. Each slice backs exactly one
	// concurrently-live encode or decode (see the call sites); none of
	// them escapes the engine.
	armMask   []bool
	recodeDec []float64 // recodeEntry's shared victim decode
	scoreDec  []float64 // scoreRecode's candidate decode
	scoreRaw  []float64 // scoreRecode's reference decode for an entry without a sketch
	floors    []float64 // recodeEntry's feasibility floors for an entry without a sketch

	// The unused tails of the chunks Ingest carves entries and sketch rows
	// from. Nothing else points at a chunk but the pool's entries in it, so
	// it is garbage once the last of them is removed (Drain goes oldest
	// first, which is chunk order).
	entries  []store.Entry
	sketches []float64

	// statsMu guards stats and every pooled entry's AccLoss so
	// Stats/Snapshot can be polled while another goroutine ingests. Ingest
	// itself stays single-goroutine; see the type comment.
	statsMu sync.Mutex
	stats   OfflineStats // guarded by statsMu
}

// OfflineStats aggregates engine-level outcomes.
type OfflineStats struct {
	// SegmentsIngested counts ingested segments.
	SegmentsIngested int
	// Recodes counts recoding operations.
	Recodes int
	// VirtualRecodes counts recodes that used the same-codec virtual
	// decompression path.
	VirtualRecodes int
	// Fallbacks counts RRD-sample last-resort recodes.
	Fallbacks int
	// RecodeSkips counts recodes deferred for lack of CPU budget.
	RecodeSkips int
	// LosslessUse / LossyUse count codec selections.
	LosslessUse, LossyUse map[string]int
}

// Snapshot is one point of the space/accuracy time series the paper's
// Figs 12–14 plot.
type Snapshot struct {
	// Seconds is the virtual ingestion time.
	Seconds float64
	// SpaceUtilization is used/capacity.
	SpaceUtilization float64
	// MeanAccuracyLoss averages the cached per-segment workload accuracy
	// loss over all stored segments (lossless segments contribute 0).
	MeanAccuracyLoss float64
	// Segments is the pool size.
	Segments int
}

// entryChunk is how many entries, and sketch rows, Ingest allocates at a
// time: 127 × 128-byte entries plus the 8-byte header Go's allocator puts on
// a pointerful object above 512 bytes fill the 16 384 size class; one entry
// more lands in the 18 432 class and wastes 2 KiB a chunk.
const entryChunk = 127

// NewOfflineEngine builds the engine.
func NewOfflineEngine(cfg Config) (*OfflineEngine, error) {
	cfg = cfg.withDefaults(false)
	if err := validatePolicy(cfg); err != nil {
		return nil, err
	}
	if cfg.StorageBytes <= 0 {
		return nil, fmt.Errorf("core: offline mode requires StorageBytes")
	}
	eval, err := NewEvaluator(cfg.Objective)
	if err != nil {
		return nil, err
	}
	e := &OfflineEngine{
		cfg:           cfg,
		reg:           cfg.Registry,
		eval:          eval,
		losslessNames: armNames(cfg.LosslessArms, cfg.Registry.Lossless()),
		lossyNames:    armNames(cfg.LossyArms, cfg.Registry.Lossy()),
		storage:       sim.NewStorage(cfg.StorageBytes, cfg.StorageThreshold),
		pool:          store.NewPool(cfg.Policy),
		clock:         sim.NewClock(cfg.IngestRate),
		stats: OfflineStats{
			LosslessUse: make(map[string]int),
			LossyUse:    make(map[string]int),
		},
	}
	for _, name := range e.losslessNames {
		c, ok := cfg.Registry.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("core: lossless arm %q is not in the registry", name)
		}
		e.lossless = append(e.lossless, c)
	}
	for _, name := range e.lossyNames {
		c, _ := cfg.Registry.Lookup(name)
		lc, ok := c.(compress.LossyCodec)
		if !ok {
			return nil, fmt.Errorf("core: lossy arm %q is not a lossy codec in the registry", name)
		}
		rec, _ := c.(compress.Recoder)
		e.lossy, e.recoders = append(e.lossy, lc), append(e.recoders, rec)
	}
	if c, ok := cfg.Registry.Lookup("rrdsample"); ok {
		e.fallback, _ = c.(compress.LossyCodec)
	}
	e.losslessMAB = newPolicy(cfg, len(e.losslessNames), 303, "bandit.offline.lossless")
	e.om = newOfflineMetrics(cfg.Obs)
	factory := func(arms int, bc bandit.Config) bandit.Policy {
		return buildPolicy(cfg, arms, bc)
	}
	// The pool stamps each ratio-range instance's Name with its bucket
	// index, so trace events read "bandit.offline.lossy[2]" etc.
	bc := banditConfig(cfg, 404, "bandit.offline.lossy")
	bounds := []float64(nil) // default per-ratio-range pool
	if cfg.SingleLossyMAB {
		bounds = []float64{} // one bucket: the ablation configuration
	}
	e.lossyPool = bandit.NewPool(len(e.lossyNames), bc, bounds, factory)
	return e, nil
}

// Clock exposes the virtual ingestion clock.
func (e *OfflineEngine) Clock() *sim.Clock { return e.clock }

// Storage exposes the storage budget.
func (e *OfflineEngine) Storage() *sim.Storage { return e.storage }

// Stats returns a copy of the engine statistics. Safe to call while
// another goroutine ingests; the returned use maps are private copies.
func (e *OfflineEngine) Stats() OfflineStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	out := e.stats
	out.LosslessUse = make(map[string]int, len(e.stats.LosslessUse))
	for k, v := range e.stats.LosslessUse {
		out.LosslessUse[k] = v
	}
	out.LossyUse = make(map[string]int, len(e.stats.LossyUse))
	for k, v := range e.stats.LossyUse {
		out.LossyUse[k] = v
	}
	return out
}

// mutStats applies one statistics mutation under the stats lock.
func (e *OfflineEngine) mutStats(fn func(*OfflineStats)) {
	e.statsMu.Lock()
	fn(&e.stats)
	e.statsMu.Unlock()
}

// Ingest compresses and stores one segment, recoding older segments as
// needed to stay inside the budget. It returns sim.ErrBudgetExceeded when
// even maximal recoding (or a starved recoder, under RecodeBudget) cannot
// make room — the hard failure the paper's Fig 14 baselines hit.
func (e *OfflineEngine) Ingest(values []float64, label int) error {
	if len(values) == 0 {
		return compress.ErrEmptyInput
	}
	e.clock.Advance(len(values))
	if e.cfg.RecodeBudget {
		e.recodeBudget += float64(len(values)) / e.cfg.IngestRate
	}
	e.mutStats(func(s *OfflineStats) { s.SegmentsIngested++ })

	id := e.nextID
	e.nextID++

	// Lossless selection: minimize compressed size (paper §IV-C2).
	arm := e.losslessMAB.Select(nil)
	name := e.losslessNames[arm]
	// The pool keeps the payload: one allocation at its length.
	enc, err := compress.Compress(e.lossless[arm], values)
	if err != nil {
		e.losslessMAB.Update(arm, 0)
		return err
	}
	e.losslessMAB.Update(arm, 1-minf(enc.Ratio(), 1))
	e.mutStats(func(s *OfflineStats) { s.LosslessUse[name]++ })

	// The entry and its sketch are the next row of their chunks, taken
	// only once the segment is stored: a failed Ingest leaves the row to
	// the next one.
	if len(e.entries) == 0 {
		e.entries = make([]store.Entry, entryChunk)
	}
	end := e.clock.Seconds()
	entry := &e.entries[0]
	*entry = store.Entry{
		ID: id, Enc: enc, Lossless: true, Label: label,
		StartSec: end - float64(len(values))/e.cfg.IngestRate,
		EndSec:   end,
	}
	stride := 0
	if e.eval.NeedsAccuracy() {
		// The raw is in hand only here: keep what every later recode of
		// this segment will ask of it, not the segment (DESIGN.md §5). The
		// row's capacity stops at its stride, so appending past it would
		// reallocate rather than run into the next segment's row.
		stride = e.eval.answers + len(e.lossy) + 1
		if len(e.sketches) < stride {
			e.sketches = make([]float64, entryChunk*stride)
		}
		entry.Sketch = e.appendFloors(e.eval.Reference(e.sketches[:0:stride], values), values)
	}

	// Make room, then store.
	if err := e.makeRoom(int64(enc.Size())); err != nil {
		return err
	}
	if err := e.storage.Alloc(int64(enc.Size())); err != nil {
		return err
	}
	e.pool.Put(entry)
	e.entries, e.sketches = e.entries[1:], e.sketches[stride:]
	e.om.ingest(id, name, enc.Ratio(), e.storage.Utilization(), e.pool.Len())

	// Threshold-triggered cascade recoding (paper Fig 4).
	for e.storage.OverThreshold() {
		if !e.recodeOne() {
			break
		}
	}
	return nil
}

// makeRoom recodes until need bytes fit under capacity.
func (e *OfflineEngine) makeRoom(need int64) error {
	for e.storage.Used()+need > e.storage.Capacity() {
		if !e.recodeOne() {
			return sim.ErrBudgetExceeded
		}
	}
	return nil
}

// recodeOne compresses the policy's victim more aggressively. It returns
// false when no segment can be shrunk further or the recoder is out of
// CPU budget.
func (e *OfflineEngine) recodeOne() bool {
	if e.cfg.RecodeBudget && e.recodeBudget <= 0 {
		e.mutStats(func(s *OfflineStats) { s.RecodeSkips++ })
		e.om.recodeSkip()
		return false
	}
	tried := 0
	for tried <= e.pool.Len() {
		victim, ok := e.pool.Victim()
		if !ok {
			return false
		}
		tried++
		shrunk, err := e.recodeEntry(victim)
		if err != nil || !shrunk {
			// Demote the unshrinkable victim and try the next one.
			e.pool.Skip(victim.ID)
			continue
		}
		return true
	}
	return false
}

// recodeEntry halves the victim's size, preferring the virtual
// decompression path, and feeds the reward back to the ratio range's
// bandit instance. The wall-clock read only seeds recodeCost's fallback
// timing and the observer's latency histogram, never a decision, and is
// skipped when neither will look at it.
func (e *OfflineEngine) recodeEntry(victim *store.Entry) (bool, error) {
	oldSize := victim.Enc.Size()
	current := victim.Enc.Ratio()
	target := current / 2 // paper: "the size is reduced to half"

	var start time.Time
	if e.cfg.CodecCost == nil || e.om != nil {
		start = time.Now()
	}

	// The recode itself works from the stored representation: decode it
	// at most once, and only when a full recompression (or an entry
	// without a sketch) asks for the values.
	var values []float64
	decode := func() ([]float64, error) {
		if values != nil {
			return values, nil
		}
		v, err := e.reg.DecompressInto(e.recodeDec[:0], victim.Enc)
		if err != nil {
			return nil, err
		}
		e.recodeDec = v
		values = v
		return v, nil
	}

	mab := e.lossyPool.For(target)
	if cap(e.armMask) < len(e.lossyNames) {
		e.armMask = make([]bool, len(e.lossyNames))
	}
	allowed := e.armMask[:len(e.lossyNames)]
	for i := range allowed {
		allowed[i] = false
	}
	anyAllowed := false
	// Feasibility floors: the ones Ingest took off the raw, or, for an
	// entry without a sketch (ratio-only objective, restored pool), the
	// stored representation's own.
	floors := victim.Sketch
	if floors != nil {
		floors = floors[e.eval.answers:]
	} else {
		v, err := decode()
		if err != nil {
			return false, err
		}
		e.floors = e.appendFloors(e.floors[:0], v)
		floors = e.floors
	}
	for i := range e.lossy {
		if floors[i] <= target {
			allowed[i] = true
			anyAllowed = true
		}
	}

	var newEnc compress.Encoded
	var codecName string
	virtual := false
	switch {
	case anyAllowed:
		arm := mab.Select(allowed)
		codecName = e.lossyNames[arm]
		lc := e.lossy[arm]
		var err error
		if rec := e.recoders[arm]; rec != nil && victim.Enc.Codec == codecName {
			// Virtual decompression: same-codec direct recode (§IV-E).
			newEnc, err = rec.Recode(victim.Enc, target)
			virtual = true
		} else {
			var v []float64
			if v, err = decode(); err == nil {
				newEnc, err = lc.CompressRatio(v, target)
			}
		}
		if err != nil {
			mab.Update(arm, 0)
			return false, err
		}
		if newEnc.Size() >= oldSize {
			// The codec could not actually shrink the segment; tell the
			// bandit and give up on this victim for now.
			mab.Update(arm, 0)
			return false, nil
		}
		reward, accLoss, err := e.scoreRecode(victim, newEnc)
		if err != nil {
			mab.Update(arm, 0)
			return false, err
		}
		mab.Update(arm, reward)
		cost := e.recodeCost(start, victim.Enc.Codec, codecName, victim.Enc.N, virtual)
		e.finishRecode(victim, newEnc, oldSize, accLoss, virtual, false, cost)
		e.om.recoded(victim.ID, codecName, target, newEnc.Ratio(), reward, e.storage.Utilization(), virtual, false, start)
		return true, nil

	default:
		// Last resort: RRD-sample at whatever ratio it can still reach
		// (paper Fig 12: "BUFF-lossy fails and falls back to RRD-sample").
		lc := e.fallback
		if lc == nil {
			return false, ErrNoFeasibleCodec
		}
		fallbackTarget := target
		if mr := floors[len(e.lossy)]; mr > fallbackTarget {
			fallbackTarget = mr
		}
		var err error
		if rec, ok := lc.(compress.Recoder); ok && victim.Enc.Codec == lc.Name() {
			newEnc, err = rec.Recode(victim.Enc, fallbackTarget)
			virtual = true
		} else {
			var v []float64
			if v, err = decode(); err == nil {
				newEnc, err = lc.CompressRatio(v, fallbackTarget)
			}
		}
		if err != nil {
			return false, err
		}
		if newEnc.Size() >= oldSize {
			return false, nil
		}
		_, accLoss, err := e.scoreRecode(victim, newEnc)
		if err != nil {
			return false, err
		}
		cost := e.recodeCost(start, victim.Enc.Codec, lc.Name(), victim.Enc.N, virtual)
		e.finishRecode(victim, newEnc, oldSize, accLoss, virtual, true, cost)
		e.om.recoded(victim.ID, lc.Name(), fallbackTarget, newEnc.Ratio(), 0, e.storage.Utilization(), virtual, true, start)
		return true, nil
	}
}

// appendFloors appends the smallest ratio each lossy arm can reach on
// values, in arm order, then the fallback's when the registry has one: the
// second half of an entry's sketch, after the evaluator's Reference.
func (e *OfflineEngine) appendFloors(dst, values []float64) []float64 {
	for _, lc := range e.lossy {
		dst = append(dst, lc.MinRatio(values))
	}
	if e.fallback != nil {
		dst = append(dst, e.fallback.MinRatio(values))
	}
	return dst
}

// scoreRecode evaluates the recoded representation against the raw
// segment's reference answers and returns (bandit reward, accuracy loss).
func (e *OfflineEngine) scoreRecode(victim *store.Entry, newEnc compress.Encoded) (reward, accLoss float64, err error) {
	decoded, err := e.reg.DecompressInto(e.scoreDec[:0], newEnc)
	if err != nil {
		return 0, 0, err
	}
	e.scoreDec = decoded
	obs := Observation{Decoded: decoded, CompressedBytes: newEnc.Size()}
	if victim.Sketch != nil {
		reward, accLoss = e.eval.ScoreAgainst(victim.Sketch[:e.eval.answers], victim.Enc.N, obs)
		return reward, accLoss, nil
	}
	// Without a sketch, score against the previous representation (best
	// available reference).
	obs.Raw, err = e.reg.DecompressInto(e.scoreRaw[:0], victim.Enc)
	if err != nil {
		return 0, 0, err
	}
	e.scoreRaw = obs.Raw
	reward, accLoss = e.eval.Score(obs)
	return reward, accLoss, nil
}

// recodeCost returns the virtual CPU seconds one recode consumed: the
// deterministic model when configured, wall time otherwise. Virtual
// (same-codec) recodes skip the decode cost — the point of §IV-E.
func (e *OfflineEngine) recodeCost(start time.Time, oldCodec, newCodec string, points int, virtual bool) float64 {
	if e.cfg.CodecCost == nil {
		return time.Since(start).Seconds()
	}
	cost := e.cfg.CodecCost("encode", newCodec, points)
	if !virtual {
		cost += e.cfg.CodecCost("decode", oldCodec, points)
	}
	return cost
}

// finishRecode commits the new representation, storage accounting, CPU
// budget accounting, LRU repositioning and, in one trip through the stats
// lock, the recode's statistics and the entry's accuracy loss.
func (e *OfflineEngine) finishRecode(victim *store.Entry, newEnc compress.Encoded, oldSize int, accLoss float64, virtual, fallback bool, cost float64) {
	_ = e.storage.Resize(int64(newEnc.Size() - oldSize)) // shrink never fails
	victim.Enc = newEnc
	victim.Lossless = false
	victim.Level++
	e.pool.Touch(victim.ID)
	e.statsMu.Lock()
	victim.AccLoss = accLoss
	e.stats.Recodes++
	if virtual {
		e.stats.VirtualRecodes++
	}
	if fallback {
		e.stats.Fallbacks++
	}
	e.stats.LossyUse[newEnc.Codec]++
	e.statsMu.Unlock()
	if e.cfg.RecodeBudget {
		e.recodeBudget -= cost * e.cfg.CPUScale
	}
}

// Snapshot captures the current space/accuracy state. Losses are summed
// in segment-id order so the result is bit-for-bit reproducible.
func (e *OfflineEngine) Snapshot() Snapshot {
	var entries []*store.Entry
	e.pool.Each(func(entry *store.Entry) { entries = append(entries, entry) })
	sort.Slice(entries, func(a, b int) bool { return entries[a].ID < entries[b].ID })
	var sum float64
	e.statsMu.Lock()
	for _, entry := range entries {
		sum += entry.AccLoss
	}
	e.statsMu.Unlock()
	n := len(entries)
	mean := 0.0
	if n > 0 {
		mean = sum / float64(n)
	}
	return Snapshot{
		Seconds:          e.clock.Seconds(),
		SpaceUtilization: e.storage.Utilization(),
		MeanAccuracyLoss: mean,
		Segments:         n,
	}
}

// Query runs an aggregation over every stored segment (decompressing as
// needed); query access moves segments to the MRU end of the policy list,
// protecting them from recoding (paper §IV-F).
func (e *OfflineEngine) Query(agg query.Agg) (float64, error) {
	var all []float64
	var ids []uint64
	e.pool.Each(func(entry *store.Entry) { ids = append(ids, entry.ID) })
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		entry, ok := e.pool.Get(id) // records the access
		if !ok {
			continue
		}
		v, err := e.reg.Decompress(entry.Enc)
		if err != nil {
			return 0, err
		}
		all = append(all, v...)
	}
	return query.Apply(agg, all)
}

// QuerySegment decompresses one segment by id, recording the access.
func (e *OfflineEngine) QuerySegment(id uint64) ([]float64, error) {
	entry, ok := e.pool.Get(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown segment %d", id)
	}
	return e.reg.Decompress(entry.Enc)
}

// Segments returns the number of stored segments.
func (e *OfflineEngine) Segments() int { return e.pool.Len() }

// EachEntry iterates the compressed pool (for experiment reporting).
func (e *OfflineEngine) EachEntry(fn func(*store.Entry)) { e.pool.Each(fn) }
