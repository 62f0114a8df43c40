package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

// idKeyedPolicy is a recoding policy that forwards every call, keyed by the
// engine's slots, to inner, and mirrors it into ref: a fresh policy of the
// same kind keyed by segment ID through a map, which is how the engine
// indexed its segments before its rows were the only index. Every victim
// inner names must be the segment ref names.
type idKeyedPolicy struct {
	t       *testing.T
	eng     *OfflineEngine // nil until attach
	inner   store.Policy
	ref     idModel
	pending []int32 // slots Put before attach, in order
	victims int     // victims compared
}

// idModel is the reference: policy over slots it gives out by segment ID,
// a fresh one to each ID it has not seen.
type idModel struct {
	policy store.Policy
	slots  map[uint64]int32
	ids    []uint64 // by slot
}

// slot returns id's slot, giving it the next one if it has none.
func (m *idModel) slot(id uint64) int32 {
	s, ok := m.slots[id]
	if !ok {
		s = int32(len(m.ids))
		m.slots[id], m.ids = s, append(m.ids, id)
	}
	return s
}

func newIDKeyedPolicy(t *testing.T, newPolicy func() store.Policy) *idKeyedPolicy {
	return &idKeyedPolicy{t: t, inner: newPolicy(), ref: idModel{policy: newPolicy(), slots: map[uint64]int32{}}}
}

// attach binds the policy to the engine that owns its slots and registers
// what ResumeOfflineEngine put before there was one to ask.
func (p *idKeyedPolicy) attach(e *OfflineEngine) {
	p.eng = e
	for _, slot := range p.pending {
		p.ref.policy.Put(p.ref.slot(p.id(slot)))
	}
	p.pending = nil
}

func (p *idKeyedPolicy) id(slot int32) uint64 { return p.eng.at(slot).id }

// refSlot is the reference's slot of the segment in the engine's slot.
func (p *idKeyedPolicy) refSlot(slot int32) int32 { return p.ref.slot(p.id(slot)) }

func (p *idKeyedPolicy) Put(slot int32) {
	p.inner.Put(slot)
	if p.eng == nil {
		p.pending = append(p.pending, slot)
		return
	}
	p.ref.policy.Put(p.refSlot(slot))
}

func (p *idKeyedPolicy) Get(slot int32) {
	p.inner.Get(slot)
	p.ref.policy.Get(p.refSlot(slot))
}

func (p *idKeyedPolicy) Victim() (int32, bool) {
	slot, ok := p.inner.Victim()
	want, wantOK := p.ref.policy.Victim()
	if ok != wantOK || ok && p.id(slot) != p.ref.ids[want] {
		p.t.Fatalf("victim: slot %d (ok %v), the ID-keyed model names slot %d (ok %v)", slot, ok, want, wantOK)
	}
	p.victims++
	return slot, ok
}

func (p *idKeyedPolicy) Remove(slot int32) {
	id := p.id(slot)
	p.ref.policy.Remove(p.ref.slot(id))
	delete(p.ref.slots, id)
	p.inner.Remove(slot)
}

func (p *idKeyedPolicy) Skip(slot int32) {
	store.Skip(p.inner, slot)
	store.Skip(p.ref.policy, p.refSlot(slot))
}

func (p *idKeyedPolicy) RecordContribution(slot int32, ratio float64) {
	store.RecordContribution(p.inner, slot, ratio)
	store.RecordContribution(p.ref.policy, p.refSlot(slot), ratio)
}

// checkLookups asserts that every ID below end resolves exactly when it is
// stored: QuerySegment returns the stored segment's values and rejects
// every other ID. It returns the stored IDs, in order.
func checkLookups(t *testing.T, e *OfflineEngine, pol *idKeyedPolicy, end uint64) []uint64 {
	t.Helper()
	var ids []uint64
	e.EachEntry(func(en *store.Entry) { ids = append(ids, en.ID) })
	if !slices.IsSorted(ids) || len(ids) != e.Segments() || len(pol.ref.slots) != len(ids) {
		t.Fatalf("%d stored IDs (sorted %v), engine %d, ID-keyed model %d slots",
			len(ids), slices.IsSorted(ids), e.Segments(), len(pol.ref.slots))
	}
	for id := uint64(0); id < end; id++ {
		got, err := e.QuerySegment(id)
		if _, stored := slices.BinarySearch(ids, id); !stored {
			if err == nil {
				t.Fatalf("QuerySegment(%d) found a segment that is not stored", id)
			}
			continue
		}
		if err != nil {
			t.Fatalf("QuerySegment(%d): %v", id, err)
		}
		en, _ := peek(e, id)
		if want, _ := e.reg.Decompress(en.Enc); !slices.Equal(got, want) || en.ID != id {
			t.Fatalf("QuerySegment(%d) returned another segment's values", id)
		}
	}
	return ids
}

// checkPolicyHolds drains both of pol's policies through Victim and Remove
// and asserts that each tracked exactly the segments e stores. It ends
// their use.
func checkPolicyHolds(t *testing.T, e *OfflineEngine, pol *idKeyedPolicy) {
	t.Helper()
	var stored []uint64
	e.EachEntry(func(en *store.Entry) { stored = append(stored, en.ID) })
	drain := func(p store.Policy, id func(int32) uint64) []uint64 {
		var ids []uint64
		for slot, ok := p.Victim(); ok && len(ids) <= len(stored); slot, ok = p.Victim() {
			ids = append(ids, id(slot))
			p.Remove(slot)
		}
		slices.Sort(ids)
		return ids
	}
	inner := drain(pol.inner, pol.id)
	ref := drain(pol.ref.policy, func(slot int32) uint64 { return pol.ref.ids[slot] })
	if !slices.Equal(inner, stored) || !slices.Equal(ref, stored) {
		t.Fatalf("%d stored segments; the policy tracks %d, the ID-keyed model %d", len(stored), len(inner), len(ref))
	}
}

// TestOfflineLookupAcrossIDGaps: segment IDs are not dense. A failed Ingest
// burns one, Drain takes a prefix and a restored dump keeps every gap, so
// a lookup by ID is a search over the stored rows, and the recoding
// policy's slots, which a drained chunk hands to the next, name segments
// only through them. Across both kinds of gap and a chunk reused after
// Drain, QuerySegment, QueryFiltered's contributions, QueryRange, Drain and
// SaveTo must see exactly the stored segments, and every recoding victim
// must be the one a policy keyed by segment ID picks.
func TestOfflineLookupAcrossIDGaps(t *testing.T) {
	for _, kind := range []struct {
		name      string
		newPolicy func() store.Policy
	}{
		{"lru", func() store.Policy { return store.NewLRU() }},
		{"roundrobin", func() store.Policy { return store.NewRoundRobin() }},
		{"informativeness", func() store.Policy { return store.NewInformativeness() }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			pol := newIDKeyedPolicy(t, kind.newPolicy)
			cfg := Config{
				StorageBytes: 16 << 10,
				Objective:    AggTarget(query.Sum),
				Policy:       pol,
				Seed:         5,
			}
			e, err := NewOfflineEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pol.attach(e)

			// A segment no recoding can fit in the budget fails after its
			// ID is taken, at the start and again with a full store.
			rng := rand.New(rand.NewSource(5))
			oversized := make([]float64, 8192)
			for i := range oversized {
				oversized[i] = rng.Float64()
			}
			var burned []uint64
			var gapFrom, gapTo float64
			burn := func() {
				t.Helper()
				gapFrom = e.Clock().Seconds()
				burned = append(burned, e.nextID)
				if err := e.Ingest(oversized, 0); !errors.Is(err, sim.ErrBudgetExceeded) {
					t.Fatalf("oversized segment: err = %v, want ErrBudgetExceeded", err)
				}
				gapTo = e.Clock().Seconds()
			}
			burn()
			ingestCBF(t, e, 150, 51)
			burn()
			ingestCBF(t, e, 150, 52)

			if _, err := e.QueryFiltered(query.Sum, func(v float64) bool { return v > 0 }); err != nil {
				t.Fatal(err)
			}
			// The window the second failed segment would have covered
			// holds no point; each stored segment's own window holds
			// exactly its points (short of half a point at its end, where
			// rounding can put the next segment's first).
			if _, err := e.QueryRange(query.Max, gapFrom, gapTo); !errors.Is(err, query.ErrEmpty) {
				t.Fatalf("QueryRange over burned ID %d's window: err = %v, want ErrEmpty", burned[1], err)
			}
			e.EachEntry(func(en *store.Entry) {
				if en.ID%7 != 0 && en.ID != burned[1]+1 {
					return
				}
				values, _ := e.reg.Decompress(en.Enc)
				half := (en.EndSec - en.StartSec) / float64(2*len(values))
				got, err := e.QueryRange(query.Max, en.StartSec, en.EndSec-half)
				if want, _ := query.Apply(query.Max, values); err != nil || got != want {
					t.Fatalf("QueryRange over segment %d's window = %v, %v; want %v", en.ID, got, err, want)
				}
			})
			checkLookups(t, e, pol, e.nextID+3)

			// Drain past the first chunk, which frees its slots for the
			// chunk the next ingests start.
			stored := checkLookups(t, e, pol, 0)
			var window int64
			for i := 0; i < rowChunk+3; i++ {
				window += int64(e.nth(i).size)
			}
			rep := drain(t, e, sim.Bandwidth(window), 1)
			if rep.SegmentsSent != rowChunk+3 {
				t.Fatalf("drained %d segments, want %d", rep.SegmentsSent, rowChunk+3)
			}
			for i, en := range rep.Sent {
				if en.ID != stored[i] {
					t.Fatalf("Drain sent ID %d at %d, want stored ID %d", en.ID, i, stored[i])
				}
			}
			if rep.BytesLeft != storedBytes(e) || rep.SegmentsLeft != e.Segments() {
				t.Fatalf("Drain left %d segments, %d bytes; %d stored, %d bytes", rep.SegmentsLeft, rep.BytesLeft, e.Segments(), storedBytes(e))
			}
			// A chunk's worth of segments outgrows the last chunk's tail.
			ingestCBF(t, e, rowChunk, 53)
			if !slices.Contains(e.rows, 0) {
				t.Fatalf("chunks %v: the drained chunk's number was not reused", e.rows)
			}
			if _, err := e.Query(query.Sum); err != nil {
				t.Fatal(err)
			}
			stored = checkLookups(t, e, pol, e.nextID+3)

			// A dump keeps the gaps, and a resumed engine looks up and
			// recodes across them.
			var dump bytes.Buffer
			if _, err := e.SaveTo(&dump); err != nil {
				t.Fatal(err)
			}
			var dumped []uint64
			if err := store.ReadDump(bytes.NewReader(dump.Bytes()), func(en *store.Entry) error {
				dumped = append(dumped, en.ID)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(dumped, stored) {
				t.Fatalf("SaveTo wrote IDs %v, want the stored %v", dumped, stored)
			}
			pol2 := newIDKeyedPolicy(t, kind.newPolicy)
			cfg.Policy = pol2
			r, err := ResumeOfflineEngine(cfg, &dump)
			if err != nil {
				t.Fatal(err)
			}
			pol2.attach(r)
			if got := checkLookups(t, r, pol2, e.nextID+3); !slices.Equal(got, stored) {
				t.Fatalf("resumed engine stores %v, want %v", got, stored)
			}
			if r.nextID != stored[len(stored)-1]+1 {
				t.Fatalf("resumed next ID %d, want %d", r.nextID, stored[len(stored)-1]+1)
			}
			if _, err := r.QueryFiltered(query.Max, func(v float64) bool { return math.Abs(v) < 1 }); err != nil {
				t.Fatal(err)
			}
			ingestCBF(t, r, 150, 54)
			checkLookups(t, r, pol2, r.nextID+3)
			if pol.victims < 300 || pol2.victims < 100 {
				t.Fatalf("compared %d and %d victims: the budget no longer forces the cascade", pol.victims, pol2.victims)
			}
			checkPolicyHolds(t, e, pol)
			checkPolicyHolds(t, r, pol2)
		})
	}
}
