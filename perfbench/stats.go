package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile's rank for
// the percentile to be reported: a p99 over 200 samples rests on two
// values and says nothing about the tail, so it is withheld instead.
const minBeyond = 10

// dist is one latency sample set in which every failed operation counts
// as +Inf: a failed op misses any latency limit.
type dist struct {
	sorted []float64 // successful samples, ascending
	failed int
}

func newDist(samples []float64, failed int) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{sorted: s, failed: failed}
}

// n is the number of operations a percentile ranks, failures included.
func (d dist) n() int { return len(d.sorted) + d.failed }

// quantile returns the nearest-rank num/den quantile (p50 is 1/2, p99 is
// 99/100) and whether it is reported. It is withheld when fewer than
// minBeyond samples rank above it, and +Inf when it falls among the
// failures.
func (d dist) quantile(num, den int) (float64, bool) {
	n := d.n()
	rank := (num*n + den - 1) / den // ceil(num/den · n), in integers
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	if rank > len(d.sorted) {
		return math.Inf(1), true
	}
	return d.sorted[rank-1], true
}

// median returns the middle of xs (the mean of the two middle values when
// len(xs) is even), as Python's statistics.median does. xs must not be
// empty; it is not modified.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, computed as Python's statistics.quantiles(xs, n=4) does with its
// default exclusive method — the spread rule the benchmark is judged by is
// stated in those terms. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
