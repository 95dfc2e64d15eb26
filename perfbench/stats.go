package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile, on
// the side of the distribution it reports: a p90 needs 100 samples, a p10
// needs 101.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted and
// whether at least minTail samples lie beyond it: above it for q >= 0.5,
// below it otherwise.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if q < 0.5 {
		beyond = rank - 1
	}
	return sorted[rank-1], beyond >= minTail
}

// samplesFor returns how many samples percentile needs before it may
// report q (100 for a p90, 101 for a p10).
func samplesFor(q float64) int {
	if q < 0.5 {
		return int(math.Floor(minTail/q+1e-9)) + 1
	}
	return int(math.Ceil(minTail/(1-q) - 1e-9))
}

// geomean returns the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// perInputSamples is how many samples each input needs for perInput.
var perInputSamples = max(samplesFor(0.1), samplesFor(0.9))

// perInput summarizes latency samples grouped by input: each input's
// p10 and p90 are taken on its own samples and then combined across
// inputs with the geometric mean, so a mix of input sizes cannot move the
// result by shifting where a pooled percentile falls. ok is false when
// some input has fewer than perInputSamples samples.
//
// The low end is p10 rather than the median because on a shared host a
// compile's latency is bimodal: compiles run 1.5 to 2 times slower, their
// own CPU time growing alike, in spells lasting a fraction of a second.
// The median falls between the two modes and moves with the share of the
// run the host was busy; p10 stays in the fast mode and p90 in the slow
// one (perfbench/STEADINESS.md).
func perInput(groups [][]float64) (p10, p90 float64, ok bool) {
	var m10, m90 []float64
	ok = len(groups) > 0
	for _, g := range groups {
		s := sortedCopy(g)
		a, ok10 := percentile(s, 0.1)
		b, ok90 := percentile(s, 0.9)
		ok = ok && ok10 && ok90
		m10 = append(m10, a)
		m90 = append(m90, b)
	}
	return geomean(m10), geomean(m90), ok
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns Q1, the median and Q3 of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so the steadiness report reads the same as the check made on
// the printed results. It needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := sortedCopy(xs)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
