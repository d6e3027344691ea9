// Package stats provides small, allocation-conscious statistical helpers
// used throughout the R2C2 reproduction: exact sample collections with
// percentile queries, a counted sample of small integers, and exponentially
// weighted moving averages.
//
// All collectors are plain values; their zero values are ready to use.
// None of them are safe for concurrent mutation — callers that share a
// collector across goroutines must synchronise externally (the simulator is
// single-threaded per run; the emulator keeps one collector per node).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers percentile and mean
// queries over the exact set of observations. It keeps every value, so
// it is intended for experiment-sized data (up to a few million points).
type Sample struct {
	values []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddAll records every observation in vs.
func (s *Sample) AddAll(vs []float64) {
	s.values = append(s.values, vs...)
	s.sorted = false
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. It returns NaN for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	s.ensureSorted()
	return percentile(len(s.values), func(i int) float64 { return s.values[i] }, p)
}

// percentile is the interpolation rule of every sample in the package: the
// p-th percentile of n observations of which at(i) is the i-th smallest.
func percentile(n int, at func(i int) float64, p float64) float64 {
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return at(0)
	}
	if p >= 100 {
		return at(n - 1)
	}
	// Each float64(x*y) rounds a product before it is added, so arm64
	// cannot fuse the two into a multiply-add and interpolate to other
	// bits than amd64 (TestNoFusedMultiplyAdd); EWMA.Update does the same.
	rank := float64(p / 100 * float64(n-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return at(lo)
	}
	frac := rank - float64(lo)
	return float64(at(lo)*(1-frac)) + float64(at(hi)*frac)
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Values returns a copy of the observations in ascending order. The caller
// owns the returned slice; mutating it cannot corrupt the Sample's
// internal (sorted) state, which percentile queries depend on.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0,1]: higher alpha weights recent observations more. The zero
// value is unusable; construct with NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor. It panics if
// alpha is outside (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Update feeds one observation and returns the new average. The first
// observation initialises the average directly.
func (e *EWMA) Update(v float64) float64 {
	if !e.init {
		e.value = v
		e.init = true
		return v
	}
	e.value = float64(e.alpha*v) + float64((1-e.alpha)*e.value)
	return e.value
}

// Counts is an exact sample of small non-negative integers — reorder-buffer
// occupancies, one per data packet — kept as one counter per value instead
// of one element per observation. Every query answers what a Sample fed the
// same integers would, bit for bit: the observations are a multiset, so how
// many of each value there are is all a percentile, a maximum or the sorted
// values can depend on. Nothing depends on the order observations arrived
// in, and merging two samples is adding their counters.
type Counts struct {
	n     []uint64 // n[v]: observations equal to v
	total int
}

// Add records one observation. A negative one is a bug in the caller.
func (c *Counts) Add(v int) {
	c.grow(v + 1)
	c.n[v]++
	c.total++
}

// grow extends the counters to at least n values.
func (c *Counts) grow(n int) {
	if n > len(c.n) {
		c.n = append(c.n, make([]uint64, n-len(c.n))...) // doubles: a new maximum is rare
	}
}

// Merge adds every observation of o.
func (c *Counts) Merge(o *Counts) {
	c.grow(len(o.n))
	for v, k := range o.n {
		c.n[v] += k
	}
	c.total += o.total
}

// Len reports the number of recorded observations.
func (c *Counts) Len() int { return c.total }

// at returns the i-th smallest observation, 0 <= i < Len.
func (c *Counts) at(i int) float64 {
	below := 0
	for v, k := range c.n {
		if below += int(k); i < below {
			return float64(v)
		}
	}
	panic("stats: Counts rank out of range")
}

// Percentile returns the p-th percentile (p in [0,100]) by Sample's rule:
// linear interpolation between closest ranks, NaN for an empty sample.
func (c *Counts) Percentile(p float64) float64 { return percentile(c.total, c.at, p) }

// Values returns the observations in ascending order, as Sample.Values does.
func (c *Counts) Values() []float64 {
	out := make([]float64, 0, c.total)
	for v, k := range c.n {
		for ; k > 0; k-- {
			out = append(out, float64(v))
		}
	}
	return out
}
