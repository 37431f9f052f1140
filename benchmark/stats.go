package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (mean of the two middle values for an even count); 0 for an
// empty slice, which callers report as "not measured".
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default "exclusive" method), so
// the spreads this benchmark reports are the ones its driver computes.
// It needs at least two values; with fewer, ok is false.
func quartiles(v []float64) (q [3]float64, ok bool) {
	ld := len(v)
	if ld < 2 {
		return q, false
	}
	s := sorted(v)
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q, true
}

// spread is the interquartile distance as a share of the median — the
// run-to-run variation measure the bounds are compared against. 0 when v
// has fewer than two values or a zero median.
func spread(v []float64) float64 {
	q, ok := quartiles(v)
	if !ok || q[1] == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}

// tailMinBeyond is how many samples must lie beyond a reported percentile
// for it to be a measurement and not the luck of a few slow operations.
const tailMinBeyond = 10

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of v. ok is
// false when fewer than tailMinBeyond samples lie beyond it, in which case
// the value must not be reported as a tail latency.
func percentile(v []float64, p float64) (val float64, ok bool) {
	if len(v) == 0 {
		return 0, false
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= tailMinBeyond
}

// sampleStats summarises the timed operations of one run: what is recorded
// beside each reported median.
type sampleStats struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarize(v []float64) sampleStats {
	st := sampleStats{N: len(v), Median: median(v)}
	if len(v) > 0 {
		st.Min = sorted(v)[0]
	}
	if q, ok := quartiles(v); ok {
		st.Q1, st.Q3 = q[0], q[2]
	} else {
		st.Q1, st.Q3 = st.Median, st.Median
	}
	return st
}
