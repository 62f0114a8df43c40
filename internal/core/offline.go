package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

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
// Concurrency contract: Ingest, Drain and every other method that reads or
// reorders the stored segments (Query*, EachEntry, SaveTo) must run on a
// single goroutine at a time. Stats, Snapshot, Segments, Clock and Storage
// are safe to poll concurrently with ingestion (see DESIGN.md §7).
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
	policy  store.Policy // keyed by slot; see chunks
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

	// ingestBuf is the lossless winner's encode, recodeBuf a recode's: each
	// is copied into the arena once kept (DESIGN.md §10).
	ingestBuf []byte
	recodeBuf []byte

	// The unused tails of the chunks Ingest carves entries and sketch rows
	// from. A sketch chunk is referenced by its entries only, so it is
	// garbage once the last of them is removed (Drain goes oldest first,
	// which is chunk order).
	entries  []store.Entry
	sketches []float64
	// chunks are the entry chunks by number, nil once drained; a new chunk
	// takes the lowest free number. Policy slot s is the entry
	// chunks[s/entryChunk][s%entryChunk], so slots are dense and reused.
	chunks [][]store.Entry
	// rows are the numbers of the chunks that hold stored entries, oldest
	// first, the last of them the one entries is the tail of; the first
	// head rows of rows[0] have been drained. Stored entries are therefore
	// rows head, head+1, … in segment-ID order: the engine's one index of
	// its segments, which a lookup by ID binary-searches (IDs have gaps).
	// chunks, rows, head and len(entries) change under statsMu.
	rows []int32
	head int
	// arena holds every stored payload, in segment-ID order: an entry's
	// Enc.Data is arena[off:off+n:off+n]. Ingest appends at the tail, a
	// recode overwrites its victim's bytes with fewer and Drain leaves a
	// hole; compact reclaims the holes. Its capacity never exceeds
	// StorageBytes.
	arena []byte

	// statsMu guards stats, every stored entry's AccLoss and the row
	// bookkeeping above so Stats/Snapshot/Segments can be polled while
	// another goroutine ingests. Ingest itself stays single-goroutine; see
	// the type comment.
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
	// Segments is the number of stored segments.
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
		policy:        cfg.Policy,
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
	if e.policy == nil {
		e.policy = store.NewLRU()
	}
	if c, ok := cfg.Registry.Lookup("rrdsample"); ok {
		e.fallback, _ = c.(compress.LossyCodec)
	}
	e.armMask = make([]bool, len(e.lossyNames))
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
	out.LosslessUse, out.LossyUse = maps.Clone(out.LosslessUse), maps.Clone(out.LossyUse)
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
	enc, err := compress.CompressInto(e.lossless[arm], e.ingestBuf, values)
	if err != nil {
		e.losslessMAB.Update(arm, 0)
		return err
	}
	e.ingestBuf = enc.Data[:0]
	e.losslessMAB.Update(arm, 1-minf(enc.Ratio(), 1))
	e.mutStats(func(s *OfflineStats) { s.LosslessUse[name]++ })

	// The entry and its sketch are the next row of their chunks, taken
	// only once the segment is stored: a failed Ingest leaves the row to
	// the next one.
	end := e.clock.Seconds()
	entry := e.nextRow()
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
	e.keepRow(enc.Data)
	e.sketches = e.sketches[stride:]
	e.om.ingest(id, name, enc.Ratio(), e.storage.Utilization(), e.stored())

	// Threshold-triggered cascade recoding (paper Fig 4).
	for e.storage.OverThreshold() {
		if !e.recodeOne() {
			break
		}
	}
	return nil
}

// nextRow returns the entry row the next stored segment takes, starting a
// new chunk when the last one is full. Nothing is taken until keepRow.
func (e *OfflineEngine) nextRow() *store.Entry {
	if len(e.entries) == 0 {
		chunk := make([]store.Entry, entryChunk)
		e.statsMu.Lock()
		c := slices.IndexFunc(e.chunks, func(ch []store.Entry) bool { return ch == nil })
		if c < 0 {
			c = len(e.chunks)
			e.chunks = append(e.chunks, nil)
		}
		e.chunks[c], e.entries = chunk, chunk
		e.rows = append(e.rows, int32(c))
		e.statsMu.Unlock()
	}
	return &e.entries[0]
}

// keepRow stores the segment nextRow's entry describes: payload is copied to
// the arena, its row is taken and its slot joins the policy.
func (e *OfflineEngine) keepRow(payload []byte) {
	e.entries[0].Enc.Data = e.stash(payload)
	e.statsMu.Lock()
	e.entries = e.entries[1:]
	e.statsMu.Unlock()
	e.policy.Put(e.slot(e.stored() - 1))
}

// stored is the number of stored entries: the rows taken, less those
// drained.
func (e *OfflineEngine) stored() int {
	return len(e.rows)*entryChunk - len(e.entries) - e.head
}

// row returns the i-th stored entry in segment-ID order.
func (e *OfflineEngine) row(i int) *store.Entry {
	i += e.head
	return &e.chunks[e.rows[i/entryChunk]][i%entryChunk]
}

// slot returns the i-th stored entry's policy slot.
func (e *OfflineEngine) slot(i int) int32 {
	i += e.head
	return e.rows[i/entryChunk]*entryChunk + int32(i%entryChunk)
}

// at returns the entry in policy slot s.
func (e *OfflineEngine) at(s int32) *store.Entry {
	return &e.chunks[s/entryChunk][s%entryChunk]
}

// find returns the position among the stored entries of segment id, and
// whether it is stored.
func (e *OfflineEngine) find(id uint64) (int, bool) {
	n := e.stored()
	i := sort.Search(n, func(i int) bool { return e.row(i).ID >= id })
	return i, i < n && e.row(i).ID == id
}

// stash copies payload to the arena's tail, compacting first when the tail
// is too short, and returns the copy capped at its length, so that an
// append to it reallocates instead of running into the next payload.
func (e *OfflineEngine) stash(payload []byte) []byte {
	if len(e.arena)+len(payload) > cap(e.arena) {
		e.compact()
	}
	off := len(e.arena)
	e.arena = append(e.arena, payload...)
	return e.arena[off:len(e.arena):len(e.arena)]
}

// compact slides every stored payload down to the front of the arena, so
// the holes recodes and Drain left become one free tail. Segment-ID order
// is address order, because Ingest appends in ID order and a recode only
// shrinks a payload where it lies, so each payload moves down, never over
// one not yet moved. The live bytes are storage.Used, which already counts
// the payload being stashed. When they would fill more than seven eighths
// of the arena, the payloads move to a larger one instead (arenaCap): a
// compaction then frees at least an eighth of the arena, which keeps its
// cost amortised.
func (e *OfflineEngine) compact() {
	arena := e.arena[:0]
	if live := int(e.storage.Used()); live > cap(arena)-cap(arena)/8 {
		arena = make([]byte, 0, e.arenaCap(live))
	}
	for i, n := 0, e.stored(); i < n; i++ {
		en := e.row(i)
		off := len(arena)
		arena = append(arena, en.Enc.Data...)
		en.Enc.Data = arena[off:len(arena):len(arena)]
	}
	e.arena = arena
}

// arenaCap is the capacity the arena grows to around live bytes: twice the
// current one, but no more than the steady state needs while live leaves
// room in that, and never more than StorageBytes. The steady state is the
// bytes held at the recoding threshold plus an eighth of the budget for
// compaction to reclaim. Storage accounting holds live within
// StorageBytes, so the payload being stashed always fits.
func (e *OfflineEngine) arenaCap(live int) int {
	budget := int(e.storage.Capacity())
	size := max(2*cap(e.arena), live)
	if steady := int(e.cfg.StorageThreshold*float64(budget)) + budget/8; live <= steady-steady/8 {
		size = min(size, steady)
	}
	return min(size, budget)
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
	for tried := 0; tried <= e.stored(); tried++ {
		slot, ok := e.policy.Victim()
		if !ok {
			return false
		}
		shrunk, err := e.recodeEntry(e.at(slot))
		if err != nil || !shrunk {
			// Demote the unshrinkable victim and try the next one.
			store.Skip(e.policy, slot)
			continue
		}
		// The recoded segment moves to the back of the list (§IV-F).
		e.policy.Put(slot)
		return true
	}
	return false
}

// recodeEntry halves the victim's size, preferring the virtual
// decompression path, and feeds the reward back to the ratio range's
// bandit instance. The wall-clock read only feeds the observer's latency
// histogram, never a decision, and is skipped without an observer.
func (e *OfflineEngine) recodeEntry(victim *store.Entry) (bool, error) {
	oldSize := victim.Enc.Size()
	target := victim.Enc.Ratio() / 2 // paper: "the size is reduced to half"

	start := clockIf(e.om != nil)
	// Only an encoding smaller than the victim is kept, and one always fits
	// the recode scratch.
	if cap(e.recodeBuf) < oldSize {
		e.recodeBuf = make([]byte, 0, oldSize)
	}

	// The recode itself works from the stored representation: decode it
	// at most once, and only when a full recompression (or an entry
	// without a sketch) asks for the values.
	var values []float64
	decode := func() (v []float64, err error) {
		if values == nil {
			if v, err = e.reg.DecompressInto(e.recodeDec[:0], victim.Enc); err != nil {
				return nil, err
			}
			e.recodeDec, values = v, v
		}
		return values, nil
	}

	mab := e.lossyPool.For(target)
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
	allowed, anyAllowed := e.armMask, false
	for i := range allowed {
		allowed[i] = floors[i] <= target
		anyAllowed = anyAllowed || allowed[i]
	}

	// The recode goes to the bandit's arm among those whose floor reaches
	// the target, or else, as a last resort, to RRD-sample at whatever
	// ratio it can still reach (paper Fig 12: "BUFF-lossy fails and falls
	// back to RRD-sample"). Only an arm's outcome is fed back to its bandit.
	arm, tgt := -1, target
	var name string
	var lc compress.LossyCodec
	var rec compress.Recoder
	switch {
	case anyAllowed:
		arm = mab.Select(allowed)
		name, lc, rec = e.lossyNames[arm], e.lossy[arm], e.recoders[arm]
	case e.fallback == nil:
		return false, ErrNoFeasibleCodec
	default:
		lc, tgt = e.fallback, max(target, floors[len(e.lossy)])
		name = lc.Name()
		rec, _ = lc.(compress.Recoder)
	}
	fail := func(err error) (bool, error) {
		if arm >= 0 {
			mab.Update(arm, 0)
		}
		return false, err
	}
	var newEnc compress.Encoded
	var err error
	virtual := rec != nil && victim.Enc.Codec == name
	if virtual {
		// Virtual decompression: same-codec direct recode (§IV-E).
		newEnc, err = rec.RecodeInto(e.recodeBuf, victim.Enc, tgt)
	} else {
		var v []float64
		if v, err = decode(); err == nil {
			newEnc, err = lc.CompressRatioInto(e.recodeBuf, v, tgt)
		}
	}
	if err != nil {
		return fail(err)
	}
	if newEnc.Size() >= oldSize {
		// The codec could not actually shrink the segment; give up on
		// this victim for now.
		return fail(nil)
	}
	cost := e.recodeCost(victim.Enc.Codec, name, victim.Enc.N, virtual)
	reward, accLoss, err := e.scoreRecode(victim, newEnc, cost)
	if err != nil {
		return fail(err)
	}
	if arm >= 0 {
		mab.Update(arm, reward)
	} else {
		reward = 0
	}
	e.finishRecode(victim, newEnc, oldSize, accLoss, virtual, arm < 0, cost)
	e.om.recoded(victim.ID, name, tgt, newEnc.Ratio(), reward, e.storage.Utilization(), virtual, arm < 0, start)
	return true, nil
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
// cost is the recode's cost-model seconds, a speed term's T_c.
func (e *OfflineEngine) scoreRecode(victim *store.Entry, newEnc compress.Encoded, cost float64) (reward, accLoss float64, err error) {
	decoded, err := e.reg.DecompressInto(e.scoreDec[:0], newEnc)
	if err != nil {
		return 0, 0, err
	}
	e.scoreDec = decoded
	obs := Observation{Decoded: decoded, CompressedBytes: newEnc.Size(), Duration: costDuration(cost)}
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

// recodeCost returns the virtual CPU seconds one recode consumed under the
// codec cost model. Virtual (same-codec) recodes skip the decode cost —
// the point of §IV-E.
func (e *OfflineEngine) recodeCost(oldCodec, newCodec string, points int, virtual bool) float64 {
	cost := e.cfg.CodecCost("encode", newCodec, points)
	if !virtual {
		cost += e.cfg.CodecCost("decode", oldCodec, points)
	}
	return cost
}

// finishRecode commits the new representation, written over the victim's
// own bytes in the arena, storage accounting, CPU budget accounting and,
// in one trip through the stats lock, the recode's statistics and the
// entry's accuracy loss.
func (e *OfflineEngine) finishRecode(victim *store.Entry, newEnc compress.Encoded, oldSize int, accLoss float64, virtual, fallback bool, cost float64) {
	_ = e.storage.Resize(int64(newEnc.Size() - oldSize)) // shrink never fails
	n := copy(victim.Enc.Data, newEnc.Data)
	victim.Enc = compress.Encoded{Codec: newEnc.Codec, Data: victim.Enc.Data[:n:n], N: newEnc.N}
	victim.Lossless = false
	victim.Level++
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
	var sum float64
	e.statsMu.Lock()
	n := e.stored()
	for i := 0; i < n; i++ {
		sum += e.row(i).AccLoss
	}
	e.statsMu.Unlock()
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
	for i, stored := 0, e.stored(); i < stored; i++ {
		entry := e.row(i)
		e.policy.Get(e.slot(i)) // records the access
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
	i, ok := e.find(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown segment %d", id)
	}
	e.policy.Get(e.slot(i))
	return e.reg.Decompress(e.row(i).Enc)
}

// Segments returns the number of stored segments. Safe to call while
// another goroutine ingests.
func (e *OfflineEngine) Segments() int {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stored()
}

// EachEntry calls fn for every stored segment in ID order (for experiment
// reporting); fn must not store or drain segments. A payload read through
// an Entry lives in the engine's arena and is valid until the next Ingest,
// which may overwrite or move it: copy it to keep it.
func (e *OfflineEngine) EachEntry(fn func(*store.Entry)) {
	for i, n := 0, e.stored(); i < n; i++ {
		fn(e.row(i))
	}
}
