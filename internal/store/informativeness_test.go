package store

import (
	"slices"
	"testing"
)

func TestInformativenessVictimIsLeastInformative(t *testing.T) {
	p := NewInformativeness()
	p.Put(1)
	p.Put(2)
	p.Put(3)
	// Queries touch 2 heavily, 3 lightly, 1 never.
	p.Get(2)
	p.Get(2)
	p.Get(3)
	if v, ok := p.Victim(); !ok || v != 1 {
		t.Fatalf("victim = %d, want 1 (never queried)", v)
	}
	p.Remove(1)
	if v, _ := p.Victim(); v != 3 {
		t.Fatalf("victim = %d, want 3 (least queried)", v)
	}
}

func TestInformativenessQualifiedRatio(t *testing.T) {
	// Paper §IV-B2: "a segment with 1% qualified entries is less
	// informative than one with 99%".
	p := NewInformativeness()
	p.Put(1)
	p.Put(2)
	p.RecordContribution(1, 0.01)
	p.RecordContribution(2, 0.99)
	if v, _ := p.Victim(); v != 1 {
		t.Fatalf("victim = %d, want the 1%%-qualified segment", v)
	}
	// Out-of-range ratios are clamped, unknown ids ignored.
	p.RecordContribution(1, -5)
	p.RecordContribution(1, 7)
	p.RecordContribution(99, 1)
	if got := drain(p, 3); !slices.Equal(got, []int32{2, 1}) {
		t.Fatalf("victims %v, want [2 1]: an unknown id was registered", got)
	}
}

func TestInformativenessTieBreaksOldest(t *testing.T) {
	p := NewInformativeness()
	p.Put(5)
	p.Put(2)
	p.Put(9)
	// All scores zero: the first inserted must be the victim.
	if v, _ := p.Victim(); v != 5 {
		t.Fatalf("victim = %d, want 5 (insertion order tie-break)", v)
	}
}

func TestInformativenessDecayOnRePut(t *testing.T) {
	p := NewInformativeness()
	p.Put(1)
	p.Put(2)
	for i := 0; i < 8; i++ {
		p.Get(1)
	}
	p.Get(2)
	if v, _ := p.Victim(); v != 2 {
		t.Fatalf("victim = %d", v)
	}
	// Recode rotations decay segment 1's protection.
	p.Put(1) // 8 -> 4
	p.Put(1) // 4 -> 2
	p.Put(1) // 2 -> 1
	p.Put(1) // 1 -> 0.5
	want := 8.0
	for range 4 {
		want *= informativenessDecay
	}
	if p.scores[1] != want {
		t.Fatalf("score after four re-Puts = %v, want %v", p.scores[1], want)
	}
	if v, _ := p.Victim(); v != 1 {
		t.Fatalf("victim = %d, want 1 after decay", v)
	}
}

func TestInformativenessEmpty(t *testing.T) {
	p := NewInformativeness()
	if _, ok := p.Victim(); ok {
		t.Fatal("empty policy has no victim")
	}
	p.Get(1)    // unknown: no-op
	p.Remove(1) // unknown: no-op
	if got := drain(p, 1); len(got) != 0 {
		t.Fatalf("victims %v: an unknown id was registered", got)
	}
}

func TestPoolRecordContributionFallsBackToGet(t *testing.T) {
	// With an LRU policy (no ContributionRecorder), RecordContribution
	// must degrade to a protective access.
	p := NewLRU()
	p.Put(1)
	p.Put(2)
	RecordContribution(p, 1, 0.9)
	if v, _ := p.Victim(); v != 2 {
		t.Fatalf("victim = %d, want 2 (1 was touched)", v)
	}
	RecordContribution(p, 99, 0.5) // unknown slot: no-op
	if got := drain(p, 3); !slices.Equal(got, []int32{2, 1}) {
		t.Fatalf("victims %v after an unknown slot, want [2 1]", got)
	}
}

func TestPoolRecordContributionWithInformativeness(t *testing.T) {
	p := NewInformativeness()
	p.Put(1)
	p.Put(2)
	RecordContribution(p, 1, 0.05)
	RecordContribution(p, 2, 0.95)
	if v, _ := p.Victim(); v != 1 {
		t.Fatalf("victim = %d, want the low-contribution segment", v)
	}
}
