// Package stats provides small, allocation-conscious statistical helpers
// used throughout the R2C2 reproduction: exact sample collections with
// percentile queries, CDF extraction, online mean/max tracking, and
// exponentially weighted moving averages.
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

// Sample accumulates float64 observations and answers percentile, mean and
// CDF queries over the exact set of observations. It keeps every value, so
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

// Len reports the number of recorded observations.
func (s *Sample) Len() int { return len(s.values) }

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

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 {
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum
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

// CDFPoint is one point of an empirical CDF: a fraction F of observations
// are <= Value.
type CDFPoint struct {
	Value float64
	F     float64
}

// CDF returns the empirical CDF reduced to at most maxPoints points
// (uniformly spaced in rank). maxPoints <= 0 means every distinct rank.
func (s *Sample) CDF(maxPoints int) []CDFPoint {
	n := len(s.values)
	if n == 0 {
		return nil
	}
	s.ensureSorted()
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	pts := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := (i + 1) * n / maxPoints
		if idx > n {
			idx = n
		}
		pts = append(pts, CDFPoint{Value: s.values[idx-1], F: float64(idx) / float64(n)})
	}
	return pts
}

// Summary returns a one-line human-readable digest of the sample.
func (s *Sample) Summary() string {
	if len(s.values) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.Len(), s.Mean(), s.Percentile(50), s.Percentile(95), s.Percentile(99), s.Max())
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

// Value returns the current average (zero before any update).
func (e *EWMA) Value() float64 { return e.value }

// Counter tracks a running maximum and sum of integer observations, used
// for queue-occupancy accounting where storing every sample would be
// wasteful.
type Counter struct {
	N   int64
	Sum int64
	Max int64
}

// Observe records one observation.
func (c *Counter) Observe(v int64) {
	c.N++
	c.Sum += v
	if v > c.Max {
		c.Max = v
	}
}

// Mean returns the average observation, or 0 when empty.
func (c *Counter) Mean() float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.Sum) / float64(c.N)
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

// Max returns the largest observation, or NaN for an empty sample.
func (c *Counts) Max() float64 { return c.Percentile(100) }

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
