package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/ml"
	"repro/internal/query"
)

func trainedKNN(t *testing.T) ml.Classifier {
	t.Helper()
	X, y := datasets.CBF(120, datasets.CBFConfig{Seed: 42})
	m, err := ml.FitKNN(X, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestObjectiveValidation(t *testing.T) {
	if _, err := NewEvaluator(Objective{}); err != ErrNoTerms {
		t.Fatalf("want ErrNoTerms, got %v", err)
	}
	if _, err := NewEvaluator(Objective{Terms: []Term{{Kind: TargetMLAccuracy, Weight: 1}}}); err != ErrMissingModel {
		t.Fatalf("want ErrMissingModel, got %v", err)
	}
	if _, err := NewEvaluator(Objective{Terms: []Term{{Kind: TargetRatio, Weight: -1}}}); err == nil {
		t.Fatal("negative weight should fail")
	}
	if _, err := NewEvaluator(Objective{Terms: []Term{{Kind: TargetRatio, Weight: 0}}}); err == nil {
		t.Fatal("zero weight sum should fail")
	}
}

func TestWeightsNormalized(t *testing.T) {
	e, err := NewEvaluator(Weighted(
		Term{Kind: TargetRatio, Weight: 5},
		Term{Kind: TargetAggAccuracy, Weight: 3, Agg: query.Sum},
	))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, term := range e.terms {
		sum += term.Weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("normalized weight sum = %v", sum)
	}
}

func TestRatioReward(t *testing.T) {
	e, _ := NewEvaluator(SingleTarget(TargetRatio))
	raw := make([]float64, 100)
	obs := Observation{Raw: raw, Decoded: raw, CompressedBytes: 200} // ratio 0.25
	if got := e.Reward(obs); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("ratio reward = %v, want 0.75", got)
	}
	// Expansion clamps at ratio 1 → reward 0.
	obs.CompressedBytes = 2000
	if got := e.Reward(obs); got != 0 {
		t.Fatalf("expanded reward = %v, want 0", got)
	}
}

func TestThroughputRewardNormalizes(t *testing.T) {
	e, _ := NewEvaluator(SingleTarget(TargetThroughput))
	raw := make([]float64, 1000)
	fast := Observation{Raw: raw, Decoded: raw, Duration: time.Millisecond}
	slow := Observation{Raw: raw, Decoded: raw, Duration: 10 * time.Millisecond}
	if got := e.Reward(fast); got != 1 {
		t.Fatalf("first (max) throughput reward = %v, want 1", got)
	}
	if got := e.Reward(slow); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("slow reward = %v, want 0.1", got)
	}
	if got := e.Reward(Observation{Raw: raw}); got != 0 {
		t.Fatalf("zero-duration reward = %v, want 0", got)
	}
}

func TestAggReward(t *testing.T) {
	e, _ := NewEvaluator(AggTarget(query.Max))
	obs := Observation{Raw: []float64{1, 2, 10}, Decoded: []float64{1, 2, 9}}
	if got := e.Reward(obs); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("max reward = %v, want 0.9", got)
	}
	if loss := e.AccuracyLoss(obs); math.Abs(loss-0.1) > 1e-12 {
		t.Fatalf("accuracy loss = %v, want 0.1", loss)
	}
}

func TestMLReward(t *testing.T) {
	model := trainedKNN(t)
	e, err := NewEvaluator(MLTarget(model))
	if err != nil {
		t.Fatal(err)
	}
	X, _ := datasets.CBF(3, datasets.CBFConfig{Seed: 7})
	same := Observation{Raw: X[0], Decoded: X[0]}
	if got := e.Reward(same); got != 1 {
		t.Fatalf("identical reward = %v, want 1", got)
	}
	// A constant corrupt vector yields one fixed prediction: across the
	// three CBF classes, at most one row can still agree.
	corrupt := make([]float64, len(X[0]))
	for i := range corrupt {
		corrupt[i] = 1e6
	}
	var sum float64
	for _, row := range X {
		sum += e.Reward(Observation{Raw: row, Decoded: corrupt})
	}
	if sum > 1 {
		t.Fatalf("corrupt rewards sum = %v across 3 classes, want <= 1", sum)
	}
	if !e.NeedsAccuracy() {
		t.Fatal("ML objective should need accuracy")
	}
}

func TestMLTargetFromBytes(t *testing.T) {
	model := trainedKNN(t)
	blob, err := ml.Marshal(model)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := MLTargetFromBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(obj); err != nil {
		t.Fatal(err)
	}
	if _, err := MLTargetFromBytes([]byte("junk")); err == nil {
		t.Fatal("junk blob should fail")
	}
}

func TestWeightedComplexTarget(t *testing.T) {
	// Paper Fig 10: w1×Acc_agg + w2×Acc_ML.
	model := trainedKNN(t)
	e, err := NewEvaluator(Weighted(
		Term{Kind: TargetAggAccuracy, Weight: 0.625, Agg: query.Sum},
		Term{Kind: TargetMLAccuracy, Weight: 0.375, Model: model},
	))
	if err != nil {
		t.Fatal(err)
	}
	X, _ := datasets.CBF(3, datasets.CBFConfig{Seed: 9})
	obs := Observation{Raw: X[0], Decoded: X[0]}
	if got := e.Reward(obs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect observation reward = %v, want 1", got)
	}
	if loss := e.AccuracyLoss(obs); loss != 0 {
		t.Fatalf("perfect accuracy loss = %v, want 0", loss)
	}
}

func TestAccuracyLossIgnoresNonAccuracyTerms(t *testing.T) {
	e, _ := NewEvaluator(SingleTarget(TargetRatio))
	obs := Observation{Raw: []float64{1, 2}, Decoded: []float64{9, 9}, CompressedBytes: 16}
	if loss := e.AccuracyLoss(obs); loss != 0 {
		t.Fatalf("size-only objective should report 0 accuracy loss, got %v", loss)
	}
	if e.NeedsAccuracy() {
		t.Fatal("size-only objective should not need accuracy")
	}
}

func TestTargetKindString(t *testing.T) {
	for k, want := range map[TargetKind]string{
		TargetRatio: "ratio", TargetThroughput: "throughput",
		TargetAggAccuracy: "agg-accuracy", TargetMLAccuracy: "ml-accuracy",
		TargetKind(9): "unknown",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// scoreFromRaw is the objective as the paper states it, every term read
// straight off the raw segment: the definition Evaluator's Reference /
// ScoreAgainst split has to reproduce. maxThr is the caller's running
// throughput maximum.
func scoreFromRaw(terms []Term, obs Observation, maxThr *float64) (reward, accLoss float64) {
	var wsumAll float64
	for _, t := range terms {
		wsumAll += t.Weight
	}
	var total, acc, wsum float64
	for _, t := range terms {
		var m float64
		switch t.Kind {
		case TargetRatio:
			if len(obs.Raw) > 0 {
				m = 1 - math.Min(float64(obs.CompressedBytes)/float64(8*len(obs.Raw)), 1)
			}
		case TargetThroughput:
			if obs.Duration > 0 {
				thr := float64(8*len(obs.Raw)) / obs.Duration.Seconds()
				*maxThr = math.Max(*maxThr, thr)
				if *maxThr != 0 {
					m = thr / *maxThr
				}
			}
		case TargetAggAccuracy:
			tv, errRaw := query.Apply(t.Agg, obs.Raw)
			lv, errDec := query.Apply(t.Agg, obs.Decoded)
			if errRaw == nil && errDec == nil { // 0 on error
				m = query.Accuracy(tv, lv)
			}
		case TargetMLAccuracy:
			if t.Model.Predict(obs.Raw) == t.Model.Predict(obs.Decoded) {
				m = 1
			}
		}
		m *= t.Weight / wsumAll
		total += m
		if t.Kind == TargetAggAccuracy || t.Kind == TargetMLAccuracy {
			acc += m
			wsum += t.Weight / wsumAll
		}
	}
	if wsum > 0 {
		accLoss = 1 - acc/wsum
	}
	if total < 0 {
		total = 0
	} else if total > 1 {
		total = 1
	}
	return total, accLoss
}

// TestScoreAgainstReferenceMatchesRaw: scoring a decode against
// Reference(raw), with the raw gone, gives bit for bit what the definition
// gives with the raw in hand, and so does Score. Every term kind alone,
// several accuracy terms between other terms (the answers are matched to
// their terms by order), and the inputs where the aggregation term's edge
// cases live: an empty decode or raw (Apply fails, the term is 0), a zero
// aggregate, a NaN aggregate.
func TestScoreAgainstReferenceMatchesRaw(t *testing.T) {
	model := trainedKNN(t)
	X, _ := datasets.CBF(4, datasets.CBFConfig{Seed: 9})
	coarse := make([]float64, len(X[0]))
	for i, v := range X[0] {
		coarse[i] = math.Round(v)
	}
	withNaN := append([]float64{math.NaN()}, X[1][1:]...)
	zeroSum := []float64{1, -1, 2, -2}
	pairs := []struct {
		name         string
		raw, decoded []float64
	}{
		{"identical", X[0], X[0]},
		{"rounded", X[0], coarse},
		{"other class", X[1], X[2]},
		{"empty decode", X[0], nil},
		{"empty raw", nil, X[0]},
		{"NaN aggregate", withNaN, X[1]},
		{"NaN decode", X[1], withNaN},
		{"zero aggregate", zeroSum, zeroSum},
		{"zero aggregate missed", zeroSum, []float64{1, -1, 2, -1}},
	}
	objectives := map[string]Objective{
		"ratio":      SingleTarget(TargetRatio),
		"throughput": SingleTarget(TargetThroughput),
		"ml":         MLTarget(model),
		"sum":        AggTarget(query.Sum),
		"avg":        AggTarget(query.Avg),
		"min":        AggTarget(query.Min),
		"max":        AggTarget(query.Max),
		"unknown op": AggTarget(query.Agg(99)),
		"weighted": Weighted(
			Term{Kind: TargetRatio, Weight: 1},
			Term{Kind: TargetAggAccuracy, Weight: 3, Agg: query.Min},
			Term{Kind: TargetThroughput, Weight: 1},
			Term{Kind: TargetMLAccuracy, Weight: 5, Model: model},
			Term{Kind: TargetAggAccuracy, Weight: 2, Agg: query.Sum},
		),
	}
	for name, obj := range objectives {
		viaRaw, err := NewEvaluator(obj)
		if err != nil {
			t.Fatal(err)
		}
		viaRef, _ := NewEvaluator(obj)
		var maxThr float64
		for i, p := range pairs {
			obs := Observation{
				Raw: p.raw, Decoded: p.decoded,
				CompressedBytes: 40 + 90*i, Duration: time.Duration(1+i%3) * time.Microsecond,
			}
			wantReward, wantLoss := scoreFromRaw(obj.Terms, obs, &maxThr)
			ref := viaRef.Reference(nil, p.raw)
			if len(ref) != viaRef.answers {
				t.Fatalf("%s: Reference has %d values, the objective %d accuracy terms", name, len(ref), viaRef.answers)
			}
			noRaw := obs
			noRaw.Raw = nil
			for how, score := range map[string]func() (float64, float64){
				"Score":        func() (float64, float64) { return viaRaw.Score(obs) },
				"ScoreAgainst": func() (float64, float64) { return viaRef.ScoreAgainst(ref, len(p.raw), noRaw) },
			} {
				reward, loss := score()
				if math.Float64bits(reward) != math.Float64bits(wantReward) || math.Float64bits(loss) != math.Float64bits(wantLoss) {
					t.Errorf("%s, %s, %s: (reward, loss) = (%v, %v), want (%v, %v)", name, p.name, how, reward, loss, wantReward, wantLoss)
				}
			}
		}
	}
}
