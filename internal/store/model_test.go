package store

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Model-based testing: the LRU policy must behave identically to a naive
// reference implementation (a slice kept in recency order) under arbitrary
// operation sequences over a handful of slots.

type lruModel struct {
	order []int32 // front = least recently used
}

func (m *lruModel) find(id int32) int {
	for i, v := range m.order {
		if v == id {
			return i
		}
	}
	return -1
}

func (m *lruModel) put(id int32) {
	if i := m.find(id); i >= 0 {
		m.order = append(m.order[:i], m.order[i+1:]...)
	}
	m.order = append(m.order, id)
}

func (m *lruModel) get(id int32) {
	if i := m.find(id); i >= 0 {
		m.order = append(m.order[:i], m.order[i+1:]...)
		m.order = append(m.order, id)
	}
}

func (m *lruModel) remove(id int32) {
	if i := m.find(id); i >= 0 {
		m.order = append(m.order[:i], m.order[i+1:]...)
	}
}

func (m *lruModel) victim() (int32, bool) {
	if len(m.order) == 0 {
		return 0, false
	}
	return m.order[0], true
}

func TestLRUMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		real := NewLRUFor(int(seed & 7)) // the slab grows from 0-7 slots of room
		model := &lruModel{}
		for step := 0; step < 300; step++ {
			id := int32(rng.Intn(12))
			switch rng.Intn(4) {
			case 0:
				real.Put(id)
				model.put(id)
			case 1:
				real.Get(id)
				model.get(id)
			case 2:
				real.Remove(id)
				model.remove(id)
			case 3:
				rv, rok := real.Victim()
				mv, mok := model.victim()
				if rok != mok || (rok && rv != mv) {
					return false
				}
			}
		}
		// The list holds exactly the model's slots, in the model's order.
		return slices.Equal(drain(real, len(model.order)), model.order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The informativeness policy's victim is always a minimum-score segment.
func TestInformativenessVictimIsAlwaysMinScore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewInformativeness()
		score := map[int32]float64{}
		for step := 0; step < 200; step++ {
			id := int32(rng.Intn(8))
			switch rng.Intn(5) {
			case 0:
				if _, ok := score[id]; !ok {
					p.Put(id)
					score[id] = 0
				} else {
					p.Put(id)
					score[id] *= informativenessDecay
				}
			case 1:
				if _, ok := score[id]; ok {
					p.Get(id)
					score[id]++
				} else {
					p.Get(id)
				}
			case 2:
				r := rng.Float64()
				p.RecordContribution(id, r)
				if _, ok := score[id]; ok {
					score[id] += r
				}
			case 3:
				p.Remove(id)
				delete(score, id)
			case 4:
				v, ok := p.Victim()
				if !ok {
					if len(score) != 0 {
						return false
					}
					continue
				}
				min := score[v]
				for _, s := range score {
					if s < min-1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
