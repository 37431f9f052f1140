package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints:
// the driver computes its spreads with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1.5, 1.51, 1.58, 1.6, 1.81, 1.52, 1.55}, [3]float64{1.51, 1.55, 1.6}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		got, ok := quartiles(c.in)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", c.in)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value must not be ok")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// A percentile is a tail latency only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending, so sorting is exercised
		}
		return v
	}
	if v, ok := percentile(seq(100), 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v ok=%v, want 90 with 10 beyond", v, ok)
	}
	if _, ok := percentile(seq(99), 90); ok {
		t.Error("p90 of 99 samples has 9 beyond and must not be reported")
	}
	if v, ok := percentile(seq(800), 90); v != 720 || !ok {
		t.Errorf("p90 of 1..800 = %v ok=%v, want 720", v, ok)
	}
	if _, ok := percentile(seq(8), 50); ok {
		t.Error("eight solo solves have no tail percentile")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("no samples, no percentile")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Median != 2.5 || s.Q1 != 1.25 || s.Q3 != 3.75 {
		t.Errorf("summarize = %+v", s)
	}
	if one := summarize([]float64{7}); one.Q1 != 7 || one.Q3 != 7 || one.Min != 7 {
		t.Errorf("summarize of one value = %+v", one)
	}
}
