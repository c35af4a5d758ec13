package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	want := [3]float64{2.75, 5.5, 8.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("quartiles = %v, want %v", got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name         string
		base, head   []float64
		higherBetter bool
		want         string
	}{
		{"same", steady, steady, false, "unchanged"},
		{"slower latency", steady, scale(steady, 1.2), false, "regressed"},
		{"lower goodput", steady, scale(steady, 0.8), true, "regressed"},
		{"faster", steady, scale(steady, 0.7), false, "improved"},
		{"spread wider than bound", noisy, noisy, false, "unresolved"},
	} {
		if got := compareMetric(tc.base, tc.head, tc.higherBetter, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
