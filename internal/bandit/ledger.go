package bandit

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/obs"
)

// ledger is the arm bookkeeping every policy embeds: the mutex, the
// seeded RNG, per-arm estimates, play counts and cumulative rewards, and
// the selection scratch. A policy adds only its selection rule (and,
// for Gradient, its own learning rule); Update, Estimates, RewardsInto
// and Counts are the ledger's. Every unexported method but init expects
// the caller to hold mu.
type ledger struct {
	mu      sync.Mutex
	cfg     Config
	rng     *rand.Rand
	values  []float64 // per-arm estimates; Gradient's preferences
	counts  []int
	rewards []float64
	total   int // valid Updates so far
	// cand and ties are selection scratch.
	cand, ties []int
}

// init sizes the ledger for arms arms with every estimate at initial.
func (l *ledger) init(arms int, cfg Config, initial float64) {
	if arms <= 0 {
		panic(fmt.Sprintf("bandit: invalid arm count %d", arms))
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	l.cfg = cfg
	l.rng = rand.New(rand.NewSource(seed))
	// Every per-arm array is a capped window of one float64 block and one
	// int block, two allocations a ledger rather than five: an engine
	// builds several ledgers, the offline engine a pool of them. The caps
	// keep the scratch appends inside their own windows.
	f := make([]float64, 2*arms)
	l.values, l.rewards = f[:arms:arms], f[arms:]
	n := make([]int, 3*arms)
	l.counts, l.cand, l.ties = n[:arms:arms], n[arms:arms:2*arms], n[2*arms:2*arms]
	for i := range l.values {
		l.values[i] = initial
	}
}

// Update implements Policy: the constant-Step rule when Config.Step > 0,
// the sample average otherwise.
func (l *ledger) Update(arm int, reward float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.record(arm, reward) {
		return
	}
	if l.cfg.Step > 0 {
		l.values[arm] += l.cfg.Step * (reward - l.values[arm])
	} else {
		l.values[arm] += (reward - l.values[arm]) / float64(l.counts[arm])
	}
	l.emit("update", arm, reward, l.values[arm])
}

// record books one play of arm, reporting false (and booking nothing)
// for an arm out of range.
func (l *ledger) record(arm int, reward float64) bool {
	if arm < 0 || arm >= len(l.values) {
		return false
	}
	l.counts[arm]++
	l.total++
	l.rewards[arm] += reward
	return true
}

// candidates expands the allowed mask (nil permits every arm) into the
// cand scratch and returns it.
func (l *ledger) candidates(allowed []bool) []int {
	l.cand = l.cand[:0]
	for i := range l.values {
		if allowed == nil || (i < len(allowed) && allowed[i]) {
			l.cand = append(l.cand, i)
		}
	}
	return l.cand
}

// argmax returns the candidate with the highest score, breaking ties
// uniformly at random so early identical estimates don't bias toward low
// indices. The RNG is drawn only when there is a tie.
func (l *ledger) argmax(score []float64) int {
	best := math.Inf(-1)
	ties := l.ties[:0]
	for _, a := range l.cand {
		switch {
		case score[a] > best:
			best = score[a]
			ties = append(ties[:0], a)
		case score[a] == best:
			ties = append(ties, a)
		}
	}
	l.ties = ties
	if len(ties) == 1 {
		return ties[0]
	}
	return ties[l.rng.Intn(len(ties))]
}

// selected records the select event and returns arm.
func (l *ledger) selected(arm int) int {
	l.emit("select", arm, 0, 0)
	return arm
}

// emit records one decision-trace event. The caller holds mu, which
// serializes the events in decision order.
func (l *ledger) emit(kind string, arm int, reward, value float64) {
	if l.cfg.Trace == nil {
		return
	}
	name := l.cfg.Name
	if name == "" {
		name = "bandit"
	}
	l.cfg.Trace.Record(obs.Event{Source: name, Kind: kind, Arm: arm, Reward: reward, Value: value})
}

// Estimates implements Policy.
func (l *ledger) Estimates() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.values...)
}

// RewardsInto implements Policy.
func (l *ledger) RewardsInto(dst []float64) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cap(dst) < len(l.rewards) {
		dst = make([]float64, len(l.rewards))
	}
	dst = dst[:len(l.rewards)]
	copy(dst, l.rewards)
	return dst
}

// Counts implements Policy.
func (l *ledger) Counts() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.counts...)
}
