package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: newDist must sort
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	d := newDist(seq(1000), 0)
	if got, ok := d.quantile(1, 2); !ok || got != 500 {
		t.Fatalf("p50 of 1..1000 = %v,%v; want 500", got, ok)
	}
	if got, ok := d.quantile(99, 100); !ok || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v,%v; want 990", got, ok)
	}
	if d.n() != 1000 {
		t.Fatalf("n = %d, want 1000", d.n())
	}
}

func TestQuantileCountsFailuresAsInfinite(t *testing.T) {
	// 990 successes and 10 failures: the failures rank above every sample,
	// so p99 is still the 990th value and p99.1 is a failure.
	d := newDist(seq(990), 10)
	if d.n() != 1000 {
		t.Fatalf("n = %d, want 1000 (failures count)", d.n())
	}
	if got, ok := d.quantile(99, 100); !ok || got != 990 {
		t.Fatalf("p99 = %v,%v; want 990", got, ok)
	}
	// 30 failures in 1000: the p99 rank (990) falls among them.
	d = newDist(seq(970), 30)
	if got, ok := d.quantile(99, 100); !ok || !math.IsInf(got, 1) {
		t.Fatalf("p99 with 3%% failures = %v,%v; want +Inf", got, ok)
	}
	if got, ok := d.quantile(1, 2); !ok || got != 500 {
		t.Fatalf("p50 with 3%% failures = %v,%v; want 500", got, ok)
	}
}

func TestQuantileWithheldWithFewSamplesBeyond(t *testing.T) {
	// p99 of 999 samples has rank 990 and only 9 samples beyond it.
	if _, ok := newDist(seq(999), 0).quantile(99, 100); ok {
		t.Fatal("p99 over 999 samples reported; want withheld (9 beyond)")
	}
	if _, ok := newDist(seq(1000), 0).quantile(99, 100); !ok {
		t.Fatal("p99 over 1000 samples withheld; want reported (10 beyond)")
	}
	// p50 needs 20 samples.
	if _, ok := newDist(seq(19), 0).quantile(1, 2); ok {
		t.Fatal("p50 over 19 samples reported; want withheld")
	}
	if _, ok := newDist(nil, 0).quantile(1, 2); ok {
		t.Fatal("p50 of nothing reported")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python 3: statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 5, 7.5},
		{[]float64{10, 1}, -1.25, 5.5, 12.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v,%v,%v; want %v,%v,%v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
		if m := median(c.xs); m != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.med)
		}
	}
}
