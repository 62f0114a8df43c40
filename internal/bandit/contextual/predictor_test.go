package contextual

import (
	"math"
	"math/rand"
	"testing"
)

// synthetic linear ground truth over the feature space.
func truth(x []float64) Targets {
	return Targets{
		Ratio:   0.1 + 0.4*x[1] + 0.2*x[2] - 0.15*x[3],
		Latency: 1e-5 * (1 + 3*x[1]),
		Reward:  0.9 - 0.5*x[1],
	}
}

func randomFeatures(rng *rand.Rand, scratch []float64) []float64 {
	values := make([]float64, 64)
	for i := range values {
		values[i] = rng.NormFloat64() * (1 + 5*rng.Float64())
	}
	return FeaturesInto(scratch, values)
}

// TestPredictorConvergence trains one arm on a seeded synthetic stream
// with a linear ground truth plus small noise and checks the held-out
// prediction error shrinks to the noise floor — the Oikawa et al.
// sequential-estimation property the warm start depends on.
func TestPredictorConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPredictor(1, NumFeatures, 1)
	var x []float64
	for i := 0; i < 400; i++ {
		x = randomFeatures(rng, x)
		y := truth(x)
		y.Ratio += rng.NormFloat64() * 0.01
		y.Reward += rng.NormFloat64() * 0.01
		p.Observe(0, x, y)
	}
	if p.Observations(0) != 400 {
		t.Fatalf("observations = %d, want 400", p.Observations(0))
	}
	var ratioErr, latErr, rewErr float64
	const probes = 200
	for i := 0; i < probes; i++ {
		x = randomFeatures(rng, x)
		want := truth(x)
		got := p.Predict(0, x)
		ratioErr += math.Abs(got.Ratio - want.Ratio)
		latErr += math.Abs(got.Latency - want.Latency)
		rewErr += math.Abs(got.Reward - want.Reward)
	}
	ratioErr /= probes
	latErr /= probes
	rewErr /= probes
	if ratioErr > 0.02 {
		t.Fatalf("mean ratio error %v after 400 samples, want <= 0.02", ratioErr)
	}
	if latErr > 1e-6 {
		t.Fatalf("mean latency error %v, want <= 1e-6", latErr)
	}
	if rewErr > 0.02 {
		t.Fatalf("mean reward error %v, want <= 0.02", rewErr)
	}
}

// TestPredictorImprovesWithData pins the convergence direction: the
// error after 300 samples must be below the error after 10.
func TestPredictorImprovesWithData(t *testing.T) {
	errAfter := func(samples int) float64 {
		rng := rand.New(rand.NewSource(9))
		p := NewPredictor(1, NumFeatures, 1)
		var x []float64
		for i := 0; i < samples; i++ {
			x = randomFeatures(rng, x)
			p.Observe(0, x, truth(x))
		}
		probe := rand.New(rand.NewSource(77))
		var sum float64
		for i := 0; i < 100; i++ {
			x = randomFeatures(probe, x)
			sum += math.Abs(p.Predict(0, x).Ratio - truth(x).Ratio)
		}
		return sum / 100
	}
	early, late := errAfter(10), errAfter(300)
	if late >= early {
		t.Fatalf("error did not shrink: %v after 10 samples, %v after 300", early, late)
	}
}

func TestPredictorDeterministic(t *testing.T) {
	run := func() Targets {
		rng := rand.New(rand.NewSource(5))
		p := NewPredictor(2, NumFeatures, 1)
		var x []float64
		for i := 0; i < 50; i++ {
			x = randomFeatures(rng, x)
			p.Observe(i%2, x, truth(x))
		}
		return p.Predict(0, x)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same stream, different predictions: %+v vs %+v", a, b)
	}
}

func TestPredictorColdAndClamps(t *testing.T) {
	p := NewPredictor(2, NumFeatures, 1)
	x := FeaturesInto(nil, []float64{1, 2, 3, 4})
	if got := p.Predict(0, x); got != (Targets{}) {
		t.Fatalf("cold arm predicts %+v, want zero", got)
	}
	// Strongly negative targets must clamp to the physical ranges.
	for i := 0; i < 20; i++ {
		p.Observe(1, x, Targets{Ratio: -5, Latency: -1, Reward: 7})
	}
	got := p.Predict(1, x)
	if got.Ratio != 0 || got.Latency != 0 || got.Reward != 1 {
		t.Fatalf("clamping failed: %+v", got)
	}
	// Out-of-range arms are ignored, not panics.
	p.Observe(99, x, Targets{})
	if p.Observations(99) != 0 {
		t.Fatal("out-of-range arm recorded an observation")
	}
	p.reset()
	if p.Observations(1) != 0 {
		t.Fatal("reset kept observations")
	}
}

func TestPredictorObserveZeroAlloc(t *testing.T) {
	p := NewPredictor(3, NumFeatures, 1)
	x := FeaturesInto(nil, []float64{1, 5, 2, 8, 3, 9})
	y := Targets{Ratio: 0.3, Latency: 1e-5, Reward: 0.7}
	allocs := testing.AllocsPerRun(100, func() {
		p.Observe(1, x, y)
		_ = p.Predict(1, x)
	})
	if allocs != 0 {
		t.Fatalf("Observe+Predict allocate %v times per call", allocs)
	}
}
