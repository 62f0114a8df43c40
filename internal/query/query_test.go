package query

import (
	"math"
	"testing"
	"testing/quick"
)

func TestApply(t *testing.T) {
	vals := []float64{1, 2, 3, 4, -5}
	cases := []struct {
		agg  Agg
		want float64
	}{
		{Sum, 5},
		{Avg, 1},
		{Min, -5},
		{Max, 4},
	}
	for _, c := range cases {
		got, err := Apply(c.agg, vals)
		if err != nil {
			t.Fatalf("%s: %v", c.agg, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.agg, got, c.want)
		}
	}
}

func TestApplyEmpty(t *testing.T) {
	for _, a := range []Agg{Sum, Avg, Min, Max} {
		if _, err := Apply(a, nil); err != ErrEmpty {
			t.Errorf("%s: want ErrEmpty, got %v", a, err)
		}
	}
}

func TestApplyUnknown(t *testing.T) {
	if _, err := Apply(Agg(99), []float64{1}); err == nil {
		t.Fatal("expected error for unknown aggregation")
	}
	if Agg(99).String() != "unknown" {
		t.Fatal("unknown Agg should stringify to 'unknown'")
	}
}

func TestAccuracy(t *testing.T) {
	cases := []struct {
		trueVal, lossy, want float64
	}{
		{100, 100, 1},
		{100, 90, 0.9},
		{100, 110, 0.9},
		{100, 300, 0}, // clamped at 0
		{-100, -90, 0.9},
		{0, 0, 1},
		{0, 1, 0},
	}
	for _, c := range cases {
		if got := Accuracy(c.trueVal, c.lossy); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Accuracy(%v,%v) = %v, want %v", c.trueVal, c.lossy, got, c.want)
		}
	}
}

func TestAccuracyBounds(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		acc := Accuracy(a, b)
		return acc >= 0 && acc <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAggString(t *testing.T) {
	want := map[Agg]string{Sum: "sum", Avg: "avg", Min: "min", Max: "max"}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), s)
		}
	}
}
