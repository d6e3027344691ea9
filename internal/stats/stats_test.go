package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if len(s.Values()) != 0 {
		t.Fatal("empty sample has values")
	}
	for _, v := range []float64{s.Percentile(50), s.Mean(), s.Percentile(0)} {
		if !math.IsNaN(v) {
			t.Errorf("empty-sample statistic = %v, want NaN", v)
		}
	}
}

func TestSampleBasic(t *testing.T) {
	var s Sample
	s.AddAll([]float64{5, 1, 3, 2, 4})
	if n := len(s.Values()); n != 5 {
		t.Fatalf("%d values, want 5", n)
	}
	if got := s.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := s.Median(); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := s.Percentile(25); got != 2 {
		t.Errorf("P25 = %v, want 2", got)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	s.AddAll([]float64{0, 10})
	if got := s.Percentile(50); got != 5 {
		t.Errorf("P50 of {0,10} = %v, want 5", got)
	}
	if got := s.Percentile(75); got != 7.5 {
		t.Errorf("P75 of {0,10} = %v, want 7.5", got)
	}
}

// Percentile must be monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, pa, pb float64) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Add(v)
		}
		pa = math.Abs(math.Mod(pa, 100))
		pb = math.Abs(math.Mod(pb, 100))
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := s.Percentile(pa), s.Percentile(pb)
		return va <= vb && va >= s.Percentile(0) && vb <= s.Percentile(100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestValuesSorted(t *testing.T) {
	var s Sample
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		s.Add(rng.NormFloat64())
	}
	vs := s.Values()
	if !sort.Float64sAreSorted(vs) {
		t.Fatal("Values() not sorted")
	}
	// Adding after sorting must re-sort on next query.
	s.Add(-1e9)
	if got := s.Percentile(0); got != -1e9 {
		t.Fatalf("P0 after late Add = %v", got)
	}
}

// Values hands out a copy: callers scribbling on the result (sorting it
// differently, normalising in place) must not corrupt the Sample's
// internal sorted order that percentile queries rely on.
func TestValuesReturnsCopy(t *testing.T) {
	var s Sample
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	vs := s.Values()
	for i := range vs {
		vs[i] = -7
	}
	if got := s.Percentile(100); got != 3 {
		t.Fatalf("mutating Values() result corrupted the sample: max = %v, want 3", got)
	}
	if again := s.Values(); again[0] != 1 || again[2] != 3 {
		t.Fatalf("second Values() call sees the mutation: %v", again)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if got := e.Update(10); got != 10 {
		t.Errorf("first update = %v, want 10", got)
	}
	if got := e.Update(0); got != 5 {
		t.Errorf("second update = %v, want 5", got)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.3)
	var v float64
	for i := 0; i < 200; i++ {
		v = e.Update(42)
	}
	if math.Abs(v-42) > 1e-9 {
		t.Errorf("EWMA did not converge: %v", v)
	}
}

func TestEWMAPanics(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) should panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
}

// requireSameAsSample compares every query of a Counts with a Sample holding
// the same integers, bit for bit: percentiles at the ends, at the usual
// quantiles and at ranks that fall between two observations.
func requireSameAsSample(t *testing.T, c *Counts, s *Sample) {
	t.Helper()
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	if n := len(s.Values()); c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	for _, p := range []float64{-1, 0, 0.1, 12.5, 33.3, 50, 66.7, 90, 95, 99, 99.9, 100, 101} {
		if got, want := c.Percentile(p), s.Percentile(p); !same(got, want) {
			t.Fatalf("n=%d: Percentile(%v) = %v, want %v", c.Len(), p, got, want)
		}
	}
	got, want := c.Values(), s.Values()
	if len(got) != len(want) {
		t.Fatalf("Values has %d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Values[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCountsMatchesSample holds the counted sample to the Sample it replaced
// for reorder-buffer occupancies: the same integers into both, compared as
// they grow from empty, and a merge of three parts in every order against one
// Sample of everything.
func TestCountsMatchesSample(t *testing.T) {
	var c Counts
	var s Sample
	requireSameAsSample(t, &c, &s) // empty: NaN everywhere

	rng := rand.New(rand.NewSource(1))
	draw := func() int {
		if rng.Intn(4) > 0 {
			return 0 // in-order arrivals dominate
		}
		return int(rng.ExpFloat64() * 12)
	}
	for n := 1; n <= 3000; n++ {
		v := draw()
		c.Add(v)
		s.Add(float64(v))
		if n < 40 || n%97 == 0 { // small samples interpolate between distant values
			requireSameAsSample(t, &c, &s)
		}
	}

	var parts [3]Counts
	var all Sample
	for i := range parts {
		for n := 0; n < 100*(i+1); n++ {
			v := draw() + 5*i // the parts' ranges differ: merging has to grow the receiver
			parts[i].Add(v)
			all.Add(float64(v))
		}
	}
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		var merged Counts
		for _, i := range order {
			merged.Merge(&parts[i])
		}
		requireSameAsSample(t, &merged, &all)
	}
}
