package bandit

import (
	"fmt"
	"math/rand"
	"testing"
)

// goldenScript drives p through a fixed seeded reward script: the
// feasibility mask changes every 8 steps (one window allows no arm), the
// reward landscape flips at step 32, and a contextual policy gets fresh
// priors before each Select. It returns the arm sequence and the final
// state, estimates and rewards printed exactly (%b).
func goldenScript(p Policy) (arms, state string) {
	masks := [][]bool{
		nil,
		{true, true, false, true, true},
		{false, true, true, true, false},
		{false, false, false, false, false},
		{true, false, false, false, true},
		{true, true, true, false, false},
		nil,
		{false, true, false, true, true},
	}
	base := [2][5]float64{{0.2, 0.5, 0.8, 0.4, 0.1}, {0.7, 0.1, 0.2, 0.6, 0.9}}
	rng := rand.New(rand.NewSource(23))
	priors := make([]float64, 5)
	seq := make([]int, 0, 64)
	for step := 0; step < 64; step++ {
		phase := step / 32
		if cp, ok := p.(*Contextual); ok {
			for a := range priors {
				priors[a] = base[phase][a] + 0.05*float64((step+a)%3)
			}
			cp.SetPriors(priors)
		}
		arm := p.Select(masks[step/8])
		seq = append(seq, arm)
		if arm < 0 {
			continue
		}
		p.Update(arm, base[phase][arm]+0.1*rng.Float64())
	}
	return fmt.Sprint(seq), fmt.Sprintf("%b %b %v", p.Estimates(), p.RewardsInto(nil), p.Counts())
}

// TestPolicySequenceGolden pins every policy's decisions and learned
// state under one scripted run. A failure means a Select draw order, an
// initial value or an update rule moved: the literals are not meant to
// be refreshed.
func TestPolicySequenceGolden(t *testing.T) {
	want := map[string][2]string{
		"epsilon-greedy": {
			"[2 2 2 2 2 0 0 2 0 0 0 0 0 0 0 0 2 2 2 2 2 2 2 2 -1 -1 -1 -1 -1 -1 -1 -1 0 0 0 0 4 4 4 4 0 2 2 2 2 2 2 2 4 4 4 4 4 4 4 0 4 4 4 4 4 4 4 4]",
			"[8114006420986066p-54 0p-1074 5751967025548693p-53 0p-1074 8536364704040200p-53] [8114006420986065p-50 0p-1074 7549456721032661p-49 0p-1074 5068466543023868p-48] [16 0 21 0 19]"},
		"epsilon-greedy-optimistic": {
			"[1 0 4 2 3 2 1 3 0 4 1 3 0 1 4 3 2 2 2 2 2 2 2 2 -1 -1 -1 -1 -1 -1 -1 -1 0 0 0 0 4 4 4 4 2 1 0 0 0 0 0 2 4 4 4 2 4 2 1 0 4 4 4 4 4 4 4 4]",
			"[6745664085398913p-53 5478478173755597p-54 5447795423600551p-54 6639592999758376p-53 8681758071915774p-53] [4682317798953554p-49 5685926192309128p-51 5321303947058561p-49 7927043354453860p-52 8764459350755990p-49] [13 6 14 4 19]"},
		"ucb1": {
			"[0 1 2 3 4 2 1 3 0 4 1 3 0 1 4 3 2 2 2 2 2 1 2 2 -1 -1 -1 -1 -1 -1 -1 -1 0 0 4 4 4 0 4 4 1 2 2 0 1 0 2 0 3 3 4 3 4 4 3 4 4 4 4 3 4 4 1 4]",
			"[5255746582268408p-53 7204188805030776p-54 6251243296493902p-53 4935691796495022p-53 7412474981072113p-53] [5912714905051958p-50 7204188805030776p-51 4688432472370426p-49 5552653271056900p-50 8339034353706125p-49] [9 8 12 9 18]"},
		"gradient": {
			"[1 0 1 4 1 2 4 2 4 3 1 3 0 0 1 4 2 2 1 1 1 3 2 2 -1 -1 -1 -1 -1 -1 -1 -1 4 4 0 0 4 0 4 0 1 2 0 1 2 1 0 0 0 3 0 4 1 3 3 0 3 3 4 1 4 1 4 1]",
			"[5191709976127878p-56 -5377833098311147p-54 5942856309053546p-56 -5626049540976841p-60 5364197102187106p-55] [4628185576361825p-49 5996477899803968p-50 6194876403258365p-50 5352828138561494p-50 4627646527819032p-49] [13 15 8 8 12]"},
		"contextual": {
			"[2 2 2 2 2 2 2 2 1 0 1 1 1 1 1 1 2 2 2 2 2 2 2 2 -1 -1 -1 -1 -1 -1 -1 -1 4 4 4 4 4 4 4 4 2 2 2 0 0 2 0 0 3 4 4 4 4 3 4 4 4 4 4 4 4 4 4 4]",
			"[5822969281215613p-53 4984788840494310p-53 6516479773443104p-53 5862567309725671p-53 8575846637635288p-53] [7278711601519516p-51 8723380470865042p-51 8145599716803880p-49 5862567309725671p-52 5895894563374261p-48] [5 7 20 2 22]"},
	}
	for _, tc := range policyTable() {
		arms, state := goldenScript(tc.make(5))
		if arms != want[tc.name][0] {
			t.Errorf("%s arms:\n got %s\nwant %s", tc.name, arms, want[tc.name][0])
		}
		if state != want[tc.name][1] {
			t.Errorf("%s state:\n got %s\nwant %s", tc.name, state, want[tc.name][1])
		}
	}
}
