package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (p in [0,100]) of vs by linear
// interpolation between closest ranks, NaN when vs is empty. vs need not be
// sorted and is not modified.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// summary is one metric over the reps of a run: every timing is reported as
// the median with its range and sample count.
type summary struct {
	// Value is the reported figure: the median, unless the metric says
	// otherwise (peak_rss_mb is the maximum, pooled percentiles are pooled).
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func summarize(vs []float64) summary {
	if len(vs) == 0 {
		return summary{}
	}
	return summary{Value: median(vs), Min: percentile(vs, 0), Max: percentile(vs, 100), N: len(vs)}
}

// single is the summary of a figure measured once in a run.
func single(v float64) summary { return summary{Value: v, Min: v, Max: v, N: 1} }
