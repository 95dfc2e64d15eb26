package main

import (
	"math"
	"testing"
)

func TestPercentileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1000, 0.9, 900, true},
		{101, 0.1, 11, true},
		{100, 0.1, 10, false},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if n := samplesFor(0.9); n != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", n)
	}
	if n := samplesFor(0.5); n != 20 {
		t.Errorf("samplesFor(0.5) = %d, want 20", n)
	}
	if n := samplesFor(0.1); n != 101 {
		t.Errorf("samplesFor(0.1) = %d, want 101", n)
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 4}, 2},
		{[]float64{2, 8, 4}, 4},
		{[]float64{3}, 3},
		{nil, 0},
	} {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("geomean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// A pooled median over a mix of input sizes falls between the sizes; the
// per-input summary takes each input's percentile first.
func TestPerInputIsGeomeanOfPerInputPercentiles(t *testing.T) {
	small := make([]float64, 200)
	large := make([]float64, 200)
	for i := range small {
		small[i] = 1 + float64(i)/200 // 1.000 .. 1.995
		large[i] = 16 + float64(i)/20 // 16.00 .. 25.95
	}
	p10, p90, ok := perInput([][]float64{small, large})
	if !ok {
		t.Fatal("200 samples per input must support a p10 and a p90")
	}
	want10 := math.Sqrt(1.095 * 16.95)
	want90 := math.Sqrt(1.895 * 24.95)
	if math.Abs(p10-want10) > 1e-9 || math.Abs(p90-want90) > 1e-9 {
		t.Errorf("perInput = %g, %g; want %g, %g", p10, p90, want10, want90)
	}
	if perInputSamples != 101 {
		t.Errorf("perInputSamples = %d, want 101", perInputSamples)
	}
	if _, _, ok := perInput([][]float64{small, large[:100]}); ok {
		t.Error("an input with 100 samples must not support a p10")
	}
}

// quartiles must read like Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4, 1.0, 7.5}, [3]float64{1.0, 3.1, 7.5}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, med, q3 := quartiles(c.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}
