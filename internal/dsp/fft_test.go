package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

const fftTol = 1e-9

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of [1,0,0,0] is [1,1,1,1].
	got := FFTRealInto(nil, []float64{1, 0, 0, 0})
	for i, c := range got {
		if cmplx.Abs(c-complex(1, 0)) > fftTol {
			t.Errorf("coef %d = %v, want 1", i, c)
		}
	}
	// DFT of constant signal concentrates at DC.
	got = FFTRealInto(nil, []float64{2, 2, 2, 2})
	if cmplx.Abs(got[0]-complex(8, 0)) > fftTol {
		t.Errorf("DC = %v, want 8", got[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(got[i]) > fftTol {
			t.Errorf("coef %d = %v, want 0", i, got[i])
		}
	}
}

func TestFFTSingleSinusoid(t *testing.T) {
	const n = 64
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 5 * float64(i) / n)
	}
	spec := FFTRealInto(nil, x)
	// Energy should sit at bins 5 and n-5 with magnitude n/2.
	if got := cmplx.Abs(spec[5]); math.Abs(got-n/2) > 1e-8 {
		t.Errorf("bin 5 magnitude = %g, want %g", got, float64(n)/2)
	}
	for i := 0; i < n; i++ {
		if i == 5 || i == n-5 {
			continue
		}
		if cmplx.Abs(spec[i]) > 1e-8 {
			t.Errorf("leak at bin %d: %g", i, cmplx.Abs(spec[i]))
		}
	}
}

func TestFFTRoundTripPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := IFFTRealInto(nil, FFTRealInto(nil, x))
		if !almostEqual(x, got, 1e-8) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

func TestFFTRoundTripArbitraryN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 7, 12, 100, 255, 1000} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		got := IFFTRealInto(nil, FFTRealInto(nil, x))
		if !almostEqual(x, got, 1e-7) {
			t.Errorf("n=%d (Bluestein): round trip mismatch", n)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{6, 16, 31} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		fast := FFTRealInto(nil, x)
		slow := naiveDFT(x)
		for k := range fast {
			if cmplx.Abs(fast[k]-slow[k]) > 1e-8 {
				t.Fatalf("n=%d bin %d: fast %v vs naive %v", n, k, fast[k], slow[k])
			}
		}
	}
}

func naiveDFT(x []float64) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += complex(x[t], 0) * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 37
	a := make([]float64, n)
	b := make([]float64, n)
	ab := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		ab[i] = 2*a[i] + 3*b[i]
	}
	fa, fb, fab := FFTRealInto(nil, a), FFTRealInto(nil, b), FFTRealInto(nil, ab)
	for k := range fab {
		want := 2*fa[k] + 3*fb[k]
		if cmplx.Abs(fab[k]-want) > 1e-8 {
			t.Fatalf("linearity violated at bin %d", k)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if got := FFTRealInto(nil, nil); got != nil {
		t.Errorf("FFTRealInto(nil, nil) = %v, want nil", got)
	}
	if got := IFFTRealInto(nil, nil); got != nil {
		t.Errorf("IFFTRealInto(nil, nil) = %v, want nil", got)
	}
}

func TestParsevalEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 128
	x := make([]float64, n)
	var timeEnergy float64
	for i := range x {
		x[i] = rng.NormFloat64()
		timeEnergy += x[i] * x[i]
	}
	spec := FFTRealInto(nil, x)
	var freqEnergy float64
	for _, c := range spec {
		freqEnergy += real(c)*real(c) + imag(c)*imag(c)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-6 {
		t.Fatalf("Parseval violated: time %g vs freq %g", timeEnergy, freqEnergy)
	}
}

// TestFFTRealIntoMatchesFFT pins the transform into a dirty workspace to
// the one into a fresh slice bit for bit, at a radix-2 and a Bluestein
// length, and its zero-allocation promise at the radix-2 one.
func TestFFTRealIntoMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 100, 128} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ws := make([]complex128, 128)
		for i := range ws {
			ws[i] = complex(math.NaN(), 7)
		}
		want, got := FFTRealInto(nil, x), FFTRealInto(ws, x)
		if len(got) != n {
			t.Fatalf("n=%d: %d bins", n, len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("n=%d bin %d: into a dirty workspace %v, into a fresh one %v", n, i, got[i], want[i])
			}
		}
		if isPow2(n) {
			if allocs := testing.AllocsPerRun(50, func() { FFTRealInto(ws, x) }); allocs != 0 {
				t.Errorf("n=%d: FFTRealInto allocates %v/op into a large enough workspace, want 0", n, allocs)
			}
		}
	}
}
