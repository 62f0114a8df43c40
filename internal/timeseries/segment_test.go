package timeseries

import (
	"math"
	"testing"
)

func TestComputeStats(t *testing.T) {
	st, err := ComputeStats([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Min != 1 || st.Max != 5 || st.Mean != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.Std-math.Sqrt2) > 1e-9 {
		t.Fatalf("std = %v, want sqrt(2)", st.Std)
	}
	if st.FirstDiff != 1 {
		t.Fatalf("first diff = %v", st.FirstDiff)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	if _, err := ComputeStats(nil); err != ErrEmptySegment {
		t.Fatalf("want ErrEmptySegment, got %v", err)
	}
}

func TestEntropyOrdering(t *testing.T) {
	cs, _ := ComputeStats([]float64{5, 5, 5, 5, 5, 5, 5, 5})
	ss, _ := ComputeStats([]float64{1, 9, 2, 8, 3, 7, 4, 6})
	if cs.Entropy != 0 {
		t.Fatalf("constant entropy = %v", cs.Entropy)
	}
	if ss.Entropy <= cs.Entropy {
		t.Fatal("spread data should have higher entropy")
	}
	if cs.Distinct != 1 {
		t.Fatalf("constant distinct = %d", cs.Distinct)
	}
}
