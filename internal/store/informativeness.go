package store

// Informativeness implements the alternative compression-ordering policy
// sketched in paper §IV-B2: a segment's value is measured by its query
// usage *and* by how much it contributes to those queries — "a segment
// with 1% qualified entries is less informative than one with 99%". The
// least informative segment is recoded first.
//
// Score accumulation: every Get adds a contribution (default 1.0; callers
// that know the qualified-entry ratio report it via RecordContribution).
// Scores decay multiplicatively on every recode rotation so stale history
// does not protect a segment forever.
type Informativeness struct {
	// scores and seq are indexed by slot; seq is the insertion order, the
	// tie-break, and 0 for a slot not tracked.
	scores []float64
	seq    []uint64
	next   uint64
}

// informativenessDecay is applied to a victim's score when it is re-Put
// (recoded).
const informativenessDecay = 0.5

// NewInformativeness returns an empty policy.
func NewInformativeness() *Informativeness {
	return &Informativeness{}
}

// tracked reports whether slot is registered.
func (p *Informativeness) tracked(slot int32) bool {
	return slot >= 0 && int(slot) < len(p.seq) && p.seq[slot] != 0
}

// Put implements Policy: registers a segment, or decays an existing one's
// score (a re-Put happens after recoding).
func (p *Informativeness) Put(slot int32) {
	if p.tracked(slot) {
		p.scores[slot] *= informativenessDecay
		return
	}
	for len(p.seq) <= int(slot) {
		p.seq, p.scores = append(p.seq, 0), append(p.scores, 0)
	}
	p.next++
	p.seq[slot], p.scores[slot] = p.next, 0
}

// Get implements Policy: each query access adds one unit of
// informativeness.
func (p *Informativeness) Get(slot int32) {
	if p.tracked(slot) {
		p.scores[slot]++
	}
}

// RecordContribution credits a fractional contribution, e.g. the ratio of
// entries in the segment that qualified for a filtered query.
func (p *Informativeness) RecordContribution(slot int32, ratio float64) {
	if !p.tracked(slot) {
		return
	}
	p.scores[slot] += min(max(ratio, 0), 1)
}

// Victim implements Policy: the lowest-score segment, oldest on ties.
func (p *Informativeness) Victim() (int32, bool) {
	best := int32(-1)
	for slot, seq := range p.seq {
		if seq == 0 {
			continue
		}
		if best < 0 || p.scores[slot] < p.scores[best] || (p.scores[slot] == p.scores[best] && seq < p.seq[best]) {
			best = int32(slot)
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Remove implements Policy.
func (p *Informativeness) Remove(slot int32) {
	if p.tracked(slot) {
		p.seq[slot] = 0
	}
}

// Skip implements Skipper: an unshrinkable victim is credited a unit of
// score so the selector moves on to the next-least-informative segment
// instead of spinning on one that is already at its floor.
func (p *Informativeness) Skip(slot int32) { p.Get(slot) }

// Skipper is implemented by policies that need a distinct signal for
// "this victim cannot be compressed further" (as opposed to "this victim
// was just recoded", which is Put).
type Skipper interface {
	Skip(slot int32)
}

// Skip demotes an unshrinkable victim: a policy with a Skip method uses
// it; another rotates the victim to the back via Put.
func Skip(p Policy, slot int32) {
	if s, ok := p.(Skipper); ok {
		s.Skip(slot)
		return
	}
	p.Put(slot)
}

// ContributionRecorder is implemented by policies that can use
// finer-grained informativeness signals than a plain access count.
type ContributionRecorder interface {
	RecordContribution(slot int32, ratio float64)
}

// RecordContribution forwards a qualified-entry ratio to p if it supports
// contributions; otherwise it degrades to a plain access.
func RecordContribution(p Policy, slot int32, ratio float64) {
	if cr, ok := p.(ContributionRecorder); ok {
		cr.RecordContribution(slot, ratio)
		return
	}
	p.Get(slot)
}
