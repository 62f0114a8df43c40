package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/bandit"
	"repro/internal/compress"
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

	arms
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

	// tail is the unused end of the newest chunk's rows: nextRow hands out
	// its first.
	tail []row
	// chunks are the row chunks by number, rows nil once drained; a new
	// chunk takes the lowest free number. Policy slot s is the row
	// chunks[s/rowChunk].rows[s%rowChunk], so slots are dense and reused.
	chunks []chunk
	// rows are the numbers of the chunks that hold stored segments, oldest
	// first, the last of them the one tail is the end of; the first head
	// rows of rows[0] have been drained. Stored segments are therefore
	// rows head, head+1, … in segment-ID order: the engine's one index of
	// its segments, which a lookup by ID binary-searches (IDs have gaps).
	// chunks, rows, head and len(tail) change under statsMu.
	rows []int32
	head int
	// arena holds every stored payload, in segment-ID order: a row's
	// payload is arena[off:off+size]. Ingest appends at the tail, a recode
	// overwrites its victim's bytes with fewer and Drain leaves a hole;
	// compact reclaims the holes. Its capacity never exceeds StorageBytes.
	arena []byte
	// names is the table row.codec indexes: every codec name a stored
	// payload has had, in order of first use.
	names []string
	// floorTab holds each distinct floor vector (appendFloors) once,
	// floorLen values apart; row.floors indexes it and floorIdx finds a
	// vector by its bits (floorKey is the lookup's scratch). For CBF at 128
	// points only BUFF-lossy's floor varies, so it holds one vector per
	// BUFF width.
	floorTab []float64
	floorLen int
	floorIdx map[string]int32
	floorKey []byte

	// statsMu guards stats, every stored row's accLoss and the row
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

// row is one stored segment as the engine keeps it: 64 bytes and no
// pointer, so its chunks are noscan memory the collector never marks
// (TestRetainedBytesOfflineRow). The payload is arena[off:off+size], the
// codec names[codec], and StartSec is derived (startSec). The objective's
// answers sit in the chunk's answer rows; the lossy floors are the vector
// floorTab interns at index floors, -1 when the segment has no sketch (a
// ratio-only objective, a restored dump). A store.Entry is built from a
// row only where one leaves the engine (entry).
type row struct {
	id       uint64
	endSec   float64
	accLoss  float64
	label    int
	off      int
	n        int // points, Encoded.N
	size     uint32
	level    int32
	floors   int32
	codec    uint16
	lossless bool
}

// chunk is rowChunk rows and, when the objective has accuracy terms, their
// answers: answers per row, in row order.
type chunk struct {
	rows    []row
	answers []float64
}

// rowChunk is how many rows Ingest allocates at a time: 256 × 64 bytes of
// pointer-free memory, which carries no allocation header, fill the 16 384
// size class exactly.
const rowChunk = 256

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
	a, err := resolveArms(cfg)
	if err != nil {
		return nil, err
	}
	e := &OfflineEngine{
		cfg:  cfg,
		reg:  cfg.Registry,
		eval: eval,
		arms: a,
		// Every name a payload can carry: the arms' and the fallback's.
		names:   make([]string, 0, len(a.losslessNames)+len(a.lossyNames)+1),
		storage: sim.NewStorage(cfg.StorageBytes, cfg.StorageThreshold),
		policy:  cfg.Policy,
		clock:   sim.NewClock(cfg.IngestRate),
		stats: OfflineStats{
			LosslessUse: make(map[string]int),
			LossyUse:    make(map[string]int),
		},
	}
	if e.policy == nil {
		// A budget holds at least about as many segments as fit it raw,
		// so the recency list starts with room for that many, but no more
		// than arenaFirst bytes of its 8-byte links hold.
		e.policy = store.NewLRUFor(int(min(cfg.StorageBytes/(8*hintPoints), arenaFirst/8)))
	}
	if c, ok := cfg.Registry.Lookup("rrdsample"); ok {
		e.fallback, _ = c.(compress.LossyCodec)
	}
	e.floorLen = len(e.lossy)
	if e.fallback != nil {
		e.floorLen++
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

	// The segment's row, and its answers, are the next of their chunk, taken
	// only once it is stored: a failed Ingest leaves the row to the next one.
	if enc.Size() > math.MaxUint32 {
		return fmt.Errorf("core: a %d-byte payload does not fit a row", enc.Size())
	}
	r := e.nextRow()
	*r = row{
		id: id, endSec: e.clock.Seconds(), label: label, n: enc.N,
		size: uint32(enc.Size()), floors: -1, codec: e.codecIndex(enc.Codec), lossless: true,
	}
	if e.eval.NeedsAccuracy() {
		// The raw is in hand only here: keep what every later recode of
		// this segment will ask of it, not the segment (DESIGN.md §5).
		e.eval.Reference(e.answersAt(e.slot(e.stored()))[:0], values)
		e.floors = e.appendFloors(e.floors[:0], values)
		r.floors = e.internFloors(e.floors)
	}

	// Make room, then store.
	if err := e.makeRoom(int64(enc.Size())); err != nil {
		return err
	}
	if err := e.storage.Alloc(int64(enc.Size())); err != nil {
		return err
	}
	e.keepRow(enc.Data)
	e.om.ingest(id, name, enc.Ratio(), e.storage.Utilization(), e.stored())

	// Threshold-triggered cascade recoding (paper Fig 4).
	for e.storage.OverThreshold() {
		if !e.recodeOne() {
			break
		}
	}
	return nil
}

// nextRow returns the row the next stored segment takes, starting a new
// chunk when the last one is full. Nothing is taken until keepRow.
func (e *OfflineEngine) nextRow() *row {
	if len(e.tail) == 0 {
		ch := chunk{rows: make([]row, rowChunk)}
		if a := e.eval.answers; a > 0 {
			ch.answers = make([]float64, rowChunk*a)
		}
		e.statsMu.Lock()
		c := slices.IndexFunc(e.chunks, func(ch chunk) bool { return ch.rows == nil })
		if c < 0 {
			c = len(e.chunks)
			e.chunks = append(e.chunks, chunk{})
		}
		e.chunks[c], e.tail = ch, ch.rows
		e.rows = append(e.rows, int32(c))
		e.statsMu.Unlock()
	}
	return &e.tail[0]
}

// keepRow stores the segment nextRow's row describes: payload is copied to
// the arena, the row is taken and its slot joins the policy.
func (e *OfflineEngine) keepRow(payload []byte) {
	e.tail[0].off = e.stash(payload)
	e.statsMu.Lock()
	e.tail = e.tail[1:]
	e.statsMu.Unlock()
	e.policy.Put(e.slot(e.stored() - 1))
}

// stored is the number of stored segments: the rows taken, less those
// drained.
func (e *OfflineEngine) stored() int {
	return len(e.rows)*rowChunk - len(e.tail) - e.head
}

// nth returns the i-th stored row in segment-ID order.
func (e *OfflineEngine) nth(i int) *row {
	return e.at(e.slot(i))
}

// slot returns the i-th stored row's policy slot; i == stored() is the
// slot the next row takes.
func (e *OfflineEngine) slot(i int) int32 {
	i += e.head
	return e.rows[i/rowChunk]*rowChunk + int32(i%rowChunk)
}

// at returns the row in policy slot s.
func (e *OfflineEngine) at(s int32) *row {
	return &e.chunks[s/rowChunk].rows[s%rowChunk]
}

// answersAt returns the answer row of slot s, the objective's Reference on
// the raw segment when the row has floors; its capacity stops at its
// length, so appending past it would reallocate rather than run into the
// next row's.
func (e *OfflineEngine) answersAt(s int32) []float64 {
	a := e.eval.answers
	off := int(s%rowChunk) * a
	return e.chunks[s/rowChunk].answers[off : off+a : off+a]
}

// floorsOf returns the floor vector row r names; r must have one.
func (e *OfflineEngine) floorsOf(r *row) []float64 {
	off := int(r.floors) * e.floorLen
	return e.floorTab[off : off+e.floorLen : off+e.floorLen]
}

// internFloors returns the index of floors in floorTab, appending it when
// no vector there has the same bits: interning is exact, so a recode reads
// the very floats Ingest took.
func (e *OfflineEngine) internFloors(floors []float64) int32 {
	e.floorKey = e.floorKey[:0]
	for _, f := range floors {
		e.floorKey = binary.LittleEndian.AppendUint64(e.floorKey, math.Float64bits(f))
	}
	if i, ok := e.floorIdx[string(e.floorKey)]; ok {
		return i
	}
	if e.floorIdx == nil {
		e.floorIdx = make(map[string]int32)
	}
	i := int32(len(e.floorTab) / e.floorLen)
	e.floorIdx[string(e.floorKey)] = i
	e.floorTab = append(e.floorTab, floors...)
	return i
}

// codecIndex returns name's index in the name table, adding it on first
// use. The table holds the few codec names the registry's arms return.
func (e *OfflineEngine) codecIndex(name string) uint16 {
	i := slices.Index(e.names, name)
	if i < 0 {
		i = len(e.names)
		e.names = append(e.names, name)
	}
	return uint16(i)
}

// enc returns r's payload as the codecs take it, a view of the arena that
// the next Ingest may overwrite or move.
func (e *OfflineEngine) enc(r *row) compress.Encoded {
	end := r.off + int(r.size)
	return compress.Encoded{Codec: e.names[r.codec], Data: e.arena[r.off:end:end], N: r.n}
}

// startSec is where r's span begins on the virtual clock: its end less its
// points at the ingest rate, the expression Ingest stamped it with.
func (e *OfflineEngine) startSec(r *row) float64 {
	return r.endSec - float64(r.n)/e.cfg.IngestRate
}

// entry builds the store.Entry callers outside the engine see of the row
// in slot s, with every field the row implies; Trace is 0, since offline
// segments are untraced. When sketches is not nil and the row has a
// sketch, its answers and floors are appended there, and Sketch is that
// copy capped at its length.
func (e *OfflineEngine) entry(s int32, sketches *[]float64) store.Entry {
	r := e.at(s)
	en := store.Entry{
		ID: r.id, Enc: e.enc(r), Lossless: r.lossless, Level: r.level, Label: r.label,
		StartSec: e.startSec(r), EndSec: r.endSec, AccLoss: r.accLoss,
	}
	if sketches != nil && r.floors >= 0 {
		from := len(*sketches)
		*sketches = append(append(*sketches, e.answersAt(s)...), e.floorsOf(r)...)
		en.Sketch = (*sketches)[from:len(*sketches):len(*sketches)]
	}
	return en
}

// find returns the position among the stored rows of segment id, and
// whether it is stored.
func (e *OfflineEngine) find(id uint64) (int, bool) {
	n := e.stored()
	i := sort.Search(n, func(i int) bool { return e.nth(i).id >= id })
	return i, i < n && e.nth(i).id == id
}

// stash copies payload to the arena's tail, compacting first when the tail
// is too short, and returns the copy's offset.
func (e *OfflineEngine) stash(payload []byte) int {
	if len(e.arena)+len(payload) > cap(e.arena) {
		e.compact()
	}
	off := len(e.arena)
	e.arena = append(e.arena, payload...)
	return off
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
		r := e.nth(i)
		off := len(arena)
		arena = append(arena, e.arena[r.off:r.off+int(r.size)]...)
		r.off = off
	}
	e.arena = arena
}

// arenaCap is the capacity the arena grows to around live bytes: twice the
// current one, but no more than the steady state needs while live leaves
// room in that, and never more than StorageBytes. The steady state is the
// bytes held at the recoding threshold plus an eighth of the budget for
// compaction to reclaim. The first arena is the steady state halved,
// rounding up, until it fits arenaFirst, so that doubling lands on the
// steady state itself rather than a short last step past a power of two,
// and a budget far beyond what is ever stored costs at most arenaFirst
// until it fills. Storage accounting holds live within StorageBytes, so
// the payload being stashed always fits.
func (e *OfflineEngine) arenaCap(live int) int {
	budget := int(e.storage.Capacity())
	steady := int(e.cfg.StorageThreshold*float64(budget)) + budget/8
	size := max(2*cap(e.arena), live)
	if cap(e.arena) == 0 {
		first := steady
		for first > arenaFirst {
			first = (first + 1) / 2
		}
		size = max(size, first)
	}
	if live <= steady-steady/8 {
		size = min(size, steady)
	}
	return min(size, budget)
}

// arenaFirst bounds the arena's first allocation: an epoch's arena then
// reaches its steady state in five steps, where doubling from the first
// payload's size takes a dozen.
const arenaFirst = 64 << 10

// hintPoints sizes the recency list for segments of a CBF series' length.
const hintPoints = 128

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
		shrunk, err := e.recodeEntry(slot)
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

// recodeEntry halves the size of the victim in slot s, preferring the
// virtual decompression path, and feeds the reward back to the ratio
// range's bandit instance. The wall-clock read only feeds the observer's
// latency histogram, never a decision, and is skipped without an observer.
func (e *OfflineEngine) recodeEntry(s int32) (bool, error) {
	victim := e.at(s)
	old := e.enc(victim)
	oldSize := old.Size()
	target := old.Ratio() / 2 // paper: "the size is reduced to half"

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
			if v, err = e.reg.DecompressInto(e.recodeDec[:0], old); err != nil {
				return nil, err
			}
			e.recodeDec, values = v, v
		}
		return values, nil
	}

	mab := e.lossyPool.For(target)
	// Feasibility floors: the ones Ingest took off the raw, or, for a
	// segment without a sketch (ratio-only objective, restored pool), the
	// stored representation's own.
	var floors, answers []float64
	if victim.floors >= 0 {
		floors, answers = e.floorsOf(victim), e.answersAt(s)
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
	virtual := rec != nil && old.Codec == name
	if virtual {
		// Virtual decompression: same-codec direct recode (§IV-E).
		newEnc, err = rec.RecodeInto(e.recodeBuf, old, tgt)
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
	cost := e.recodeCost(old.Codec, name, old.N, virtual)
	reward, accLoss, err := e.scoreRecode(old, answers, newEnc, cost)
	if err != nil {
		return fail(err)
	}
	if arm >= 0 {
		mab.Update(arm, reward)
	} else {
		reward = 0
	}
	e.finishRecode(victim, newEnc, oldSize, accLoss, virtual, arm < 0, cost)
	e.om.recoded(victim.id, name, tgt, newEnc.Ratio(), reward, e.storage.Utilization(), virtual, arm < 0, start)
	return true, nil
}

// appendFloors appends the smallest ratio each lossy arm can reach on
// values, in arm order, then the fallback's when the registry has one: a
// floor vector, the second half of a segment's sketch after the
// evaluator's Reference.
func (e *OfflineEngine) appendFloors(dst, values []float64) []float64 {
	for _, lc := range e.lossy {
		dst = append(dst, lc.MinRatio(values))
	}
	if e.fallback != nil {
		dst = append(dst, e.fallback.MinRatio(values))
	}
	return dst
}

// scoreRecode evaluates the recoded representation of old against the raw
// segment's reference answers, nil for a segment without a sketch, and
// returns (bandit reward, accuracy loss). cost is the recode's cost-model
// seconds, a speed term's T_c.
func (e *OfflineEngine) scoreRecode(old compress.Encoded, answers []float64, newEnc compress.Encoded, cost float64) (reward, accLoss float64, err error) {
	decoded, err := e.reg.DecompressInto(e.scoreDec[:0], newEnc)
	if err != nil {
		return 0, 0, err
	}
	e.scoreDec = decoded
	obs := Observation{Decoded: decoded, CompressedBytes: newEnc.Size(), Duration: costDuration(cost)}
	if answers != nil {
		reward, accLoss = e.eval.ScoreAgainst(answers, old.N, obs)
		return reward, accLoss, nil
	}
	// Without a sketch, score against the previous representation (best
	// available reference).
	obs.Raw, err = e.reg.DecompressInto(e.scoreRaw[:0], old)
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
// segment's accuracy loss.
func (e *OfflineEngine) finishRecode(victim *row, newEnc compress.Encoded, oldSize int, accLoss float64, virtual, fallback bool, cost float64) {
	_ = e.storage.Resize(int64(newEnc.Size() - oldSize)) // shrink never fails
	victim.size = uint32(copy(e.arena[victim.off:victim.off+oldSize], newEnc.Data))
	victim.codec, victim.n = e.codecIndex(newEnc.Codec), newEnc.N
	victim.lossless = false
	victim.level++
	e.statsMu.Lock()
	victim.accLoss = accLoss
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
		sum += e.nth(i).accLoss
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

// QuerySegment decompresses one segment by id, recording the access.
func (e *OfflineEngine) QuerySegment(id uint64) ([]float64, error) {
	i, ok := e.find(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown segment %d", id)
	}
	e.policy.Get(e.slot(i))
	return e.reg.Decompress(e.enc(e.nth(i)))
}

// Segments returns the number of stored segments. Safe to call while
// another goroutine ingests.
func (e *OfflineEngine) Segments() int {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stored()
}

// EachEntry calls fn for every stored segment in ID order (for experiment
// reporting); fn must not store or drain segments. Each Entry, Sketch
// included, is a copy of its own that fn may keep or change without
// touching the engine; its payload, though, lives in the engine's arena
// and is valid until the next Ingest, which may overwrite or move it: copy
// it to keep it.
func (e *OfflineEngine) EachEntry(fn func(*store.Entry)) {
	n := e.stored()
	entries := make([]store.Entry, n)
	var sketches []float64
	if e.eval.NeedsAccuracy() {
		sketches = make([]float64, 0, n*(e.eval.answers+e.floorLen))
	}
	for i := range entries {
		entries[i] = e.entry(e.slot(i), &sketches)
		fn(&entries[i])
	}
}
