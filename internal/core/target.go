package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ml"
	"repro/internal/query"
)

// TargetKind identifies a single optimization objective (paper §IV-D).
type TargetKind int

// Supported optimization targets.
const (
	// TargetRatio rewards small compressed size (lossless selection).
	TargetRatio TargetKind = iota
	// TargetThroughput rewards fast compression, C_thr = S_o/T_c, a
	// power-efficiency proxy (paper §IV-D2).
	TargetThroughput
	// TargetAggAccuracy rewards aggregation-query agreement with raw data.
	TargetAggAccuracy
	// TargetMLAccuracy rewards ML prediction agreement with raw data.
	TargetMLAccuracy
)

// String implements fmt.Stringer.
func (k TargetKind) String() string {
	switch k {
	case TargetRatio:
		return "ratio"
	case TargetThroughput:
		return "throughput"
	case TargetAggAccuracy:
		return "agg-accuracy"
	case TargetMLAccuracy:
		return "ml-accuracy"
	default:
		return "unknown"
	}
}

// Term is one weighted component of an objective.
type Term struct {
	// Kind selects the metric.
	Kind TargetKind
	// Weight is the term's weight; weights are normalized at Build time.
	Weight float64
	// Agg is the operator for TargetAggAccuracy terms.
	Agg query.Agg
	// Model is the frozen, pre-trained model for TargetMLAccuracy terms.
	// Its predictions on raw data are treated as ground truth (paper
	// §IV-D1).
	Model ml.Classifier
}

// Objective is a single- or multi-term optimization target: target_c =
// Σ w_i × metric_i with Σ w_i = 1 (paper §IV-D3).
type Objective struct {
	Terms []Term
}

// Errors returned by objective construction.
var (
	ErrNoTerms      = errors.New("core: objective needs at least one term")
	ErrMissingModel = errors.New("core: ML accuracy term requires a model")
)

// SingleTarget builds a one-term objective.
func SingleTarget(kind TargetKind) Objective {
	return Objective{Terms: []Term{{Kind: kind, Weight: 1}}}
}

// AggTarget builds a one-term aggregation objective.
func AggTarget(a query.Agg) Objective {
	return Objective{Terms: []Term{{Kind: TargetAggAccuracy, Weight: 1, Agg: a}}}
}

// MLTarget builds a one-term ML objective for the given frozen model.
func MLTarget(m ml.Classifier) Objective {
	return Objective{Terms: []Term{{Kind: TargetMLAccuracy, Weight: 1, Model: m}}}
}

// MLTargetFromBytes deserializes a shipped model blob (paper §IV-D1's
// serialization module) and wraps it as an objective.
func MLTargetFromBytes(blob []byte) (Objective, error) {
	m, err := ml.Unmarshal(blob)
	if err != nil {
		return Objective{}, fmt.Errorf("core: load model: %w", err)
	}
	return MLTarget(m), nil
}

// Weighted builds a multi-term objective; weights are normalized to sum
// to 1.
func Weighted(terms ...Term) Objective { return Objective{Terms: terms} }

// validate checks structural soundness and returns normalized terms.
func (o Objective) validate() ([]Term, error) {
	if len(o.Terms) == 0 {
		return nil, ErrNoTerms
	}
	var sum float64
	for _, t := range o.Terms {
		if t.Kind == TargetMLAccuracy && t.Model == nil {
			return nil, ErrMissingModel
		}
		if t.Weight < 0 {
			return nil, fmt.Errorf("core: negative weight %v", t.Weight)
		}
		sum += t.Weight
	}
	if sum == 0 {
		return nil, errors.New("core: objective weights sum to zero")
	}
	out := make([]Term, len(o.Terms))
	copy(out, o.Terms)
	for i := range out {
		out[i].Weight /= sum
	}
	return out, nil
}

// Observation is everything the evaluator knows about one compression act.
type Observation struct {
	// Raw is the original segment (ground truth). Score reads it only
	// through Reference and its length; ScoreAgainst takes those two
	// directly and ignores it, for a caller that no longer holds the raw.
	Raw []float64
	// Decoded is the segment after decompression (equal to Raw for
	// lossless codecs).
	Decoded []float64
	// CompressedBytes is the encoded size.
	CompressedBytes int
	// Duration is the compression's T_c. The engines fill it from the
	// codec cost model (Config.CodecCost), never the wall clock, so a speed
	// term decides the same way on every run.
	Duration time.Duration
}

// Evaluator turns observations into bandit rewards in [0,1]. Throughput is
// normalized against the running maximum observed so far, so the weighted
// complex targets of paper §IV-D3 combine commensurable quantities.
//
// All an accuracy term needs of the raw segment is its own answer on it
// (the model's class, the aggregate), so scoring is split in two:
// Reference takes the answers off the raw once, ScoreAgainst scores any
// number of decodes against them, and Score is the two back to back.
type Evaluator struct {
	mu     sync.Mutex
	terms  []Term
	maxThr float64
	// answers is the number of accuracy terms, the length of a Reference.
	answers int
}

// NewEvaluator compiles an objective.
func NewEvaluator(o Objective) (*Evaluator, error) {
	terms, err := o.validate()
	if err != nil {
		return nil, err
	}
	e := &Evaluator{terms: terms}
	for _, t := range terms {
		if t.isAccuracy() {
			e.answers++
		}
	}
	return e, nil
}

// isAccuracy reports whether the term compares decompressed data with the
// raw (ML or aggregation agreement).
func (t Term) isAccuracy() bool {
	return t.Kind == TargetAggAccuracy || t.Kind == TargetMLAccuracy
}

// NeedsAccuracy reports whether the objective depends on decompressed data
// (ML or aggregation terms).
func (e *Evaluator) NeedsAccuracy() bool { return e.answers > 0 }

// Reference appends to dst what the objective's accuracy terms read off
// the raw segment, one value per accuracy term in term order: the frozen
// model's predicted class for an ML term, the aggregate for an aggregation
// term. With len(raw) it is all ScoreAgainst needs of the raw, at 8 bytes
// per term instead of 8 per point.
func (e *Evaluator) Reference(dst, raw []float64) []float64 {
	for _, t := range e.terms {
		switch t.Kind {
		case TargetMLAccuracy:
			dst = append(dst, float64(t.Model.Predict(raw)))
		case TargetAggAccuracy:
			// Apply fails on an empty raw, which ScoreAgainst sees as
			// points == 0, or on an unknown operator, which fails again on
			// the decoded side: either way the term scores 0 there.
			v, _ := query.Apply(t.Agg, raw)
			dst = append(dst, v)
		}
	}
	return dst
}

// Score evaluates obs against obs.Raw: ScoreAgainst the raw's Reference,
// taken on stack scratch.
func (e *Evaluator) Score(obs Observation) (reward, accLoss float64) {
	var scratch [4]float64
	return e.ScoreAgainst(e.Reference(scratch[:0], obs.Raw), len(obs.Raw), obs)
}

// ScoreAgainst evaluates obs in one pass, computing each term's metric
// once, against ref = Reference(raw) and points = len(raw); obs.Raw is not
// read. It returns both readings the engines take from it. reward is the
// bandit reward in [0,1] (higher is better). accLoss scores only the
// accuracy terms of the objective (1 - weighted accuracy), the quantity the
// paper's figures plot: terms without an accuracy interpretation (size,
// throughput) are excluded and the remaining weights renormalized; if the
// objective has no accuracy terms the loss is 0.
func (e *Evaluator) ScoreAgainst(ref []float64, points int, obs Observation) (reward, accLoss float64) {
	var total, acc, wsum float64
	for _, t := range e.terms {
		var answer float64
		if t.isAccuracy() {
			answer, ref = ref[0], ref[1:]
		}
		m := t.Weight * e.metric(t, answer, points, obs)
		total += m
		if t.isAccuracy() {
			acc += m
			wsum += t.Weight
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

// Reward is Score's reward alone.
func (e *Evaluator) Reward(obs Observation) float64 {
	reward, _ := e.Score(obs)
	return reward
}

// AccuracyLoss is Score's accuracy loss alone.
func (e *Evaluator) AccuracyLoss(obs Observation) float64 {
	_, accLoss := e.Score(obs)
	return accLoss
}

// metric is one term's reading; answer is the term's Reference value
// (accuracy terms only) and points the raw segment's length.
func (e *Evaluator) metric(t Term, answer float64, points int, obs Observation) float64 {
	switch t.Kind {
	case TargetRatio:
		if points == 0 {
			return 0
		}
		ratio := float64(obs.CompressedBytes) / float64(8*points)
		if ratio > 1 {
			ratio = 1
		}
		return 1 - ratio
	case TargetThroughput:
		if obs.Duration <= 0 {
			return 0
		}
		thr := float64(8*points) / obs.Duration.Seconds()
		e.mu.Lock()
		if thr > e.maxThr {
			e.maxThr = thr
		}
		max := e.maxThr
		e.mu.Unlock()
		if max == 0 {
			return 0
		}
		return thr / max
	case TargetAggAccuracy:
		if points == 0 {
			return 0
		}
		lossy, err := query.Apply(t.Agg, obs.Decoded)
		if err != nil {
			return 0
		}
		return query.Accuracy(answer, lossy)
	case TargetMLAccuracy:
		// One segment is one feature vector; agreement is binary per the
		// paper's ACC_ml with |X| = 1 at update time.
		if float64(t.Model.Predict(obs.Decoded)) == answer {
			return 1
		}
		return 0
	default:
		return 0
	}
}
