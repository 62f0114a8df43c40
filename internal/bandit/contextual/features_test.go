package contextual

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestFeaturesShapeAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var scratch []float64
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(256)
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.NormFloat64() * 10
		}
		scratch = FeaturesInto(scratch, values)
		if len(scratch) != NumFeatures {
			t.Fatalf("got %d features, want %d", len(scratch), NumFeatures)
		}
		if scratch[0] != 1 {
			t.Fatalf("bias = %v, want 1", scratch[0])
		}
		for i, f := range scratch {
			if math.IsNaN(f) || f < 0 || f > 1 {
				t.Fatalf("feature %d = %v out of [0,1] (n=%d)", i, f, n)
			}
		}
	}
}

func TestFeaturesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 128)
	for i := range values {
		values[i] = rng.Float64() * 40
	}
	a := FeaturesInto(nil, values)
	b := FeaturesInto(nil, values)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same segment, different features: %v vs %v", a, b)
	}
}

func TestFeaturesEdgeCases(t *testing.T) {
	// Constant segment: no entropy, full repetition, one bucket occupied.
	f := FeaturesInto(nil, []float64{5, 5, 5, 5})
	want := []float64{1, 0, 0, 1, 0, 1.0 / featureBuckets}
	if !reflect.DeepEqual(f, want) {
		t.Fatalf("constant segment features = %v, want %v", f, want)
	}
	// Single point: no deltas at all.
	f = FeaturesInto(f, []float64{3})
	if f[2] != 0 || f[3] != 0 || f[4] != 0 {
		t.Fatalf("single-point segment has delta features: %v", f)
	}
	// Empty segment does not panic and stays bounded.
	f = FeaturesInto(f, nil)
	if len(f) != NumFeatures {
		t.Fatalf("empty segment: got %d features", len(f))
	}
}

func TestFeaturesSeparateRegimes(t *testing.T) {
	n := 128
	steps := make([]float64, n)  // 4 flat levels: few histogram buckets hit
	smooth := make([]float64, n) // slow sine: tiny normalized deltas
	noisy := make([]float64, n)
	rng := rand.New(rand.NewSource(11))
	for i := range noisy {
		steps[i] = float64(i / 32)
		smooth[i] = math.Sin(2 * math.Pi * float64(i) / float64(n))
		noisy[i] = rng.NormFloat64()
	}
	fs := FeaturesInto(nil, steps)
	fm := FeaturesInto(nil, smooth)
	fn := FeaturesInto(nil, noisy)
	if fs[1] >= fn[1] {
		t.Fatalf("step-level entropy %v should be below noisy entropy %v", fs[1], fn[1])
	}
	if fs[3] <= fn[3] {
		t.Fatalf("step-level repetition %v should be above noisy repetition %v", fs[3], fn[3])
	}
	if fm[4] >= fn[4] {
		t.Fatalf("smooth roughness %v should be below noisy roughness %v", fm[4], fn[4])
	}
}

func TestFeaturesIntoZeroAlloc(t *testing.T) {
	values := make([]float64, 128)
	for i := range values {
		values[i] = math.Sin(float64(i) / 9)
	}
	scratch := FeaturesInto(nil, values) // warm the capacity
	allocs := testing.AllocsPerRun(100, func() {
		scratch = FeaturesInto(scratch, values)
	})
	if allocs != 0 {
		t.Fatalf("FeaturesInto allocates %v times per call with warm scratch", allocs)
	}
}
