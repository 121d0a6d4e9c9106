package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, the median and the third quartile
// of xs exactly as Python's statistics.quantiles(xs, n=4) does (the
// "exclusive" method), because that is the function the acceptance check
// of this benchmark computes run-to-run spreads with. One value is its own
// three quartiles; no values give NaN.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// metricValue is one reported metric: the median over the samples behind
// it, with the quartiles and the sample count that say how far to trust it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P25   float64 `json:"p25"`
	P75   float64 `json:"p75"`
	N     int     `json:"n"`
}

func summarize(xs []float64) metricValue {
	q1, med, q3 := quartiles(xs)
	return metricValue{Value: med, P25: q1, P75: q3, N: len(xs)}
}

// spread is the interquartile range as a share of the median.
func (m metricValue) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	return math.Abs((m.P75 - m.P25) / m.Value)
}
