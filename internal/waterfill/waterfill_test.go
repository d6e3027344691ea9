package waterfill

import (
	"math"
	"math/rand"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/topology"
)

// phi builds a Phi from (link, fraction) pairs.
func phi(pairs ...float64) routing.Phi {
	p := routing.Phi{}
	for i := 0; i+1 < len(pairs); i += 2 {
		p.Links = append(p.Links, topology.LinkID(pairs[i]))
		p.Frac = append(p.Frac, pairs[i+1])
	}
	return p
}

func netFlow(weight float64) Flow {
	return Flow{Weight: weight, Demand: Unlimited}
}

func TestSingleFlowGetsLink(t *testing.T) {
	a := NewAllocator(Config{NumLinks: 2, Capacity: 10})
	f := netFlow(1)
	f.Phi = phi(0, 1, 1, 1)
	rates := a.Allocate([]Flow{f})
	if math.Abs(rates[0]-10) > 1e-9 {
		t.Fatalf("rate = %v, want 10", rates[0])
	}
}

func TestEqualShare(t *testing.T) {
	a := NewAllocator(Config{NumLinks: 1, Capacity: 9})
	flows := make([]Flow, 3)
	for i := range flows {
		flows[i] = netFlow(1)
		flows[i].Phi = phi(0, 1)
	}
	rates := a.Allocate(flows)
	for i, r := range rates {
		if math.Abs(r-3) > 1e-9 {
			t.Fatalf("flow %d rate = %v, want 3", i, r)
		}
	}
}

func TestWeightedShare(t *testing.T) {
	a := NewAllocator(Config{NumLinks: 1, Capacity: 12})
	f1, f2 := netFlow(1), netFlow(3)
	f1.Phi, f2.Phi = phi(0, 1), phi(0, 1)
	rates := a.Allocate([]Flow{f1, f2})
	if math.Abs(rates[0]-3) > 1e-9 || math.Abs(rates[1]-9) > 1e-9 {
		t.Fatalf("rates = %v, want [3 9]", rates)
	}
}

// The Figure 4 example from the paper: f1 splits equally over paths
// {1→4} and {1→3→4}; f2 uses {2→3→4}. Ideal max-min is {1,1}, but
// respecting the routing split the feasible max-min is {2/3, 2/3}.
func TestFigure4Example(t *testing.T) {
	// Links: 0: 1→4, 1: 1→3, 2: 3→4, 3: 2→3.
	a := NewAllocator(Config{NumLinks: 4, Capacity: 1})
	f1 := netFlow(1)
	f1.Phi = phi(0, 0.5, 1, 0.5, 2, 0.5)
	f2 := netFlow(1)
	f2.Phi = phi(3, 1, 2, 1)
	rates := a.Allocate([]Flow{f1, f2})
	for i, r := range rates {
		if math.Abs(r-2.0/3) > 1e-9 {
			t.Fatalf("flow %d rate = %v, want 2/3 (Figure 4c)", i, r)
		}
	}
}

func TestHeadroomSubtracted(t *testing.T) {
	a := NewAllocator(Config{NumLinks: 1, Capacity: 10, Headroom: 0.05})
	f := netFlow(1)
	f.Phi = phi(0, 1)
	rates := a.Allocate([]Flow{f})
	if math.Abs(rates[0]-9.5) > 1e-9 {
		t.Fatalf("rate = %v, want 9.5 (5%% headroom)", rates[0])
	}
}

func TestDemandLimited(t *testing.T) {
	a := NewAllocator(Config{NumLinks: 1, Capacity: 10})
	f1, f2 := netFlow(1), netFlow(1)
	f1.Phi, f2.Phi = phi(0, 1), phi(0, 1)
	f1.Demand = 2 // host-limited
	rates := a.Allocate([]Flow{f1, f2})
	if math.Abs(rates[0]-2) > 1e-9 {
		t.Fatalf("demand-limited rate = %v, want 2", rates[0])
	}
	// §3.3.2: unused bandwidth goes to flows that can use it.
	if math.Abs(rates[1]-8) > 1e-9 {
		t.Fatalf("network-limited rate = %v, want 8", rates[1])
	}
}

func TestZeroDemand(t *testing.T) {
	a := NewAllocator(Config{NumLinks: 1, Capacity: 10})
	f1, f2 := netFlow(1), netFlow(1)
	f1.Phi, f2.Phi = phi(0, 1), phi(0, 1)
	f1.Demand = 0
	rates := a.Allocate([]Flow{f1, f2})
	if rates[0] != 0 {
		t.Fatalf("zero-demand flow got %v", rates[0])
	}
	if math.Abs(rates[1]-10) > 1e-9 {
		t.Fatalf("other flow got %v, want 10", rates[1])
	}
}

func TestHostLocalFlow(t *testing.T) {
	a := NewAllocator(Config{NumLinks: 1, Capacity: 10})
	f := Flow{Weight: 1, Demand: 7} // empty Phi: never crosses the fabric
	rates := a.Allocate([]Flow{f})
	if rates[0] != 7 {
		t.Fatalf("host-local rate = %v, want demand 7", rates[0])
	}
}

// Regression: a host-local flow with Unlimited demand used to be silently
// allocated 0. It crosses no fabric link, so it runs at line rate —
// min(demand, capacity), with the headroom (a fabric-link concern) not
// subtracted.
func TestHostLocalUnlimited(t *testing.T) {
	a := NewAllocator(Config{NumLinks: 1, Capacity: 10, Headroom: 0.05})
	cases := []struct {
		name   string
		demand float64
		want   float64
	}{
		{"unlimited gets line rate", Unlimited, 10},
		{"demand above capacity is capped", 25, 10},
		{"demand below capacity is granted", 7, 7},
		{"zero demand gets zero", 0, 0},
		{"negative demand clamps to zero", -3, 0},
	}
	for _, tc := range cases {
		rates := a.Allocate([]Flow{{Weight: 1, Demand: tc.demand}})
		if rates[0] != tc.want {
			t.Errorf("%s: rate = %v, want %v", tc.name, rates[0], tc.want)
		}
	}
}

func TestPriorityRounds(t *testing.T) {
	a := NewAllocator(Config{NumLinks: 1, Capacity: 10})
	hi, lo1, lo2 := netFlow(1), netFlow(1), netFlow(1)
	hi.Priority = 2
	hi.Demand = 4
	hi.Phi, lo1.Phi, lo2.Phi = phi(0, 1), phi(0, 1), phi(0, 1)
	rates := a.Allocate([]Flow{lo1, hi, lo2})
	if math.Abs(rates[1]-4) > 1e-9 {
		t.Fatalf("high-priority rate = %v, want 4", rates[1])
	}
	if math.Abs(rates[0]-3) > 1e-9 || math.Abs(rates[2]-3) > 1e-9 {
		t.Fatalf("low-priority rates = %v/%v, want 3/3", rates[0], rates[2])
	}
}

func TestPriorityStarvation(t *testing.T) {
	a := NewAllocator(Config{NumLinks: 1, Capacity: 10})
	hi, lo := netFlow(1), netFlow(1)
	hi.Priority = 1
	hi.Phi, lo.Phi = phi(0, 1), phi(0, 1)
	rates := a.Allocate([]Flow{hi, lo})
	if math.Abs(rates[0]-10) > 1e-9 {
		t.Fatalf("high-priority rate = %v, want 10", rates[0])
	}
	if rates[1] > 1e-9 {
		t.Fatalf("low-priority rate = %v, want 0 (starved)", rates[1])
	}
}

func TestMultiPathSplit(t *testing.T) {
	// A flow spread 50/50 across two disjoint unit links is bottlenecked at
	// rate 2 (each path carries 1).
	a := NewAllocator(Config{NumLinks: 2, Capacity: 1})
	f := netFlow(1)
	f.Phi = phi(0, 0.5, 1, 0.5)
	rates := a.Allocate([]Flow{f})
	if math.Abs(rates[0]-2) > 1e-9 {
		t.Fatalf("split-flow rate = %v, want 2", rates[0])
	}
}

func TestAllocateEmpty(t *testing.T) {
	a := NewAllocator(Config{NumLinks: 3, Capacity: 1})
	if rates := a.Allocate(nil); len(rates) != 0 {
		t.Fatal("non-empty result for no flows")
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	assertPanics(t, "bad capacity", func() { NewAllocator(Config{NumLinks: 1, Capacity: 0}) })
	assertPanics(t, "bad headroom", func() { NewAllocator(Config{NumLinks: 1, Capacity: 1, Headroom: 1}) })
	assertPanics(t, "negative links", func() { NewAllocator(Config{NumLinks: -1, Capacity: 1}) })
	a := NewAllocator(Config{NumLinks: 1, Capacity: 1})
	assertPanics(t, "zero weight", func() {
		f := Flow{Weight: 0, Demand: Unlimited, Phi: phi(0, 1)}
		a.Allocate([]Flow{f})
	})
}

// Regression: `Weight <= 0` rejected zero and negative weights but let NaN
// through (`NaN <= 0` is false), poisoning every fill-level comparison.
// Same for NaN / ±Inf demands.
func TestNonFiniteInputsPanic(t *testing.T) {
	cases := []struct {
		name   string
		weight float64
		demand float64
	}{
		{"NaN weight", math.NaN(), Unlimited},
		{"+Inf weight", math.Inf(1), Unlimited},
		{"-Inf weight", math.Inf(-1), Unlimited},
		{"negative weight", -1, Unlimited},
		{"NaN demand", 1, math.NaN()},
		{"+Inf demand", 1, math.Inf(1)},
		{"-Inf demand", 1, math.Inf(-1)},
	}
	a := NewAllocator(Config{NumLinks: 1, Capacity: 1})
	for _, tc := range cases {
		f := Flow{Weight: tc.weight, Demand: tc.demand, Phi: phi(0, 1)}
		assertPanics(t, tc.name, func() { a.Allocate([]Flow{f}) })
		assertPanics(t, tc.name+" (incremental)", func() {
			NewIncremental(Config{NumLinks: 1, Capacity: 1}).Add(f)
		})
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// ---- Property tests on random topologies and workloads ----

// randomFlows builds flows with real φ-vectors from a 4x4x4 torus.
func randomFlows(t testing.TB, rng *rand.Rand, n int) (Config, []Flow) {
	t.Helper()
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.NewTable(g)
	protos := []routing.Protocol{routing.RPS, routing.DOR, routing.VLB, routing.WLB}
	flows := make([]Flow, n)
	for i := range flows {
		src := topology.NodeID(rng.Intn(g.Nodes()))
		dst := topology.NodeID(rng.Intn(g.Nodes()))
		for dst == src {
			dst = topology.NodeID(rng.Intn(g.Nodes()))
		}
		flows[i] = Flow{
			Phi:      tab.Phi(protos[rng.Intn(len(protos))], src, dst),
			Weight:   1 + rng.Float64()*3,
			Priority: uint8(rng.Intn(3)),
			Demand:   Unlimited,
		}
		if rng.Intn(4) == 0 {
			flows[i].Demand = rng.Float64() * 5e9
		}
	}
	return Config{NumLinks: g.NumLinks(), Capacity: 10e9, Headroom: 0.05}, flows
}

// Invariant 1: no link is ever loaded beyond (1-headroom)·capacity.
// Invariant 2: every demand cap is respected.
// Invariant 3: every network-limited flow is frozen for a reason — it
// crosses a saturated link (weighted max-min cannot raise it).
func TestAllocationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 25; trial++ {
		cfg, flows := randomFlows(t, rng, 40+rng.Intn(120))
		a := NewAllocator(cfg)
		rates := a.Allocate(flows)
		effCap := cfg.Capacity * (1 - cfg.Headroom)
		loads := LinkLoads(cfg.NumLinks, flows, rates)
		for lid, l := range loads {
			if l > effCap*(1+1e-9)+1 {
				t.Fatalf("trial %d: link %d overloaded: %v > %v", trial, lid, l, effCap)
			}
		}
		for i, f := range flows {
			if f.Demand != Unlimited && rates[i] > f.Demand*(1+1e-9) {
				t.Fatalf("trial %d: flow %d exceeds demand: %v > %v", trial, i, rates[i], f.Demand)
			}
			if rates[i] < 0 {
				t.Fatalf("trial %d: negative rate %v", trial, rates[i])
			}
		}
		// Max-min justification: each flow not at its demand must cross a
		// link with residual ~0 among flows of its own or higher priority.
		for i, f := range flows {
			if len(f.Phi.Links) == 0 {
				continue
			}
			if f.Demand != Unlimited && rates[i] >= f.Demand*(1-1e-9) {
				continue
			}
			bottleneck := false
			for _, lid := range f.Phi.Links {
				if loads[lid] >= effCap*(1-1e-6) {
					bottleneck = true
					break
				}
			}
			if !bottleneck {
				t.Fatalf("trial %d: flow %d (rate %v) has neither demand cap nor bottleneck", trial, i, rates[i])
			}
		}
	}
}

// Scale invariance: with one priority class and no demand caps, doubling
// every capacity exactly doubles every rate. (Full per-flow monotonicity
// does NOT hold across strict priority classes: a high-priority multipath
// flow whose remote bottleneck relaxes can more than double its consumption
// of a particular link, legitimately shrinking what a low-priority flow
// sees there.)
func TestAllocationScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	cfg, flows := randomFlows(t, rng, 60)
	for i := range flows {
		flows[i].Priority = 0
		flows[i].Demand = Unlimited
	}
	small := NewAllocator(cfg)
	ratesSmall := append([]float64(nil), small.Allocate(flows)...)
	cfg2 := cfg
	cfg2.Capacity *= 2
	big := NewAllocator(cfg2)
	ratesBig := big.Allocate(flows)
	for i := range flows {
		if math.Abs(ratesBig[i]-2*ratesSmall[i]) > math.Max(1e-6*ratesSmall[i], 1) {
			t.Fatalf("flow %d: rate %v at C, %v at 2C — not scale-invariant", i, ratesSmall[i], ratesBig[i])
		}
	}
}

// Allocation must be independent of flow ordering (determinism / fairness).
func TestAllocationOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	cfg, flows := randomFlows(t, rng, 50)
	a := NewAllocator(cfg)
	base := append([]float64(nil), a.Allocate(flows)...)
	perm := rng.Perm(len(flows))
	shuffled := make([]Flow, len(flows))
	for i, p := range perm {
		shuffled[i] = flows[p]
	}
	b := NewAllocator(cfg)
	got := b.Allocate(shuffled)
	for i, p := range perm {
		if math.Abs(got[i]-base[p]) > math.Max(1e-6*base[p], 1e-3) {
			t.Fatalf("flow %d: rate %v after shuffle, %v before", p, got[i], base[p])
		}
	}
}

// Allocator reuse across rounds must not leak state.
func TestAllocatorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	cfg, flows := randomFlows(t, rng, 40)
	a := NewAllocator(cfg)
	first := append([]float64(nil), a.Allocate(flows)...)
	for i := 0; i < 5; i++ {
		a.Allocate(flows[:10]) // interleave different workloads
	}
	second := a.Allocate(flows)
	for i := range first {
		if math.Abs(first[i]-second[i]) > 1e-6 {
			t.Fatalf("flow %d: %v then %v — allocator leaked state", i, first[i], second[i])
		}
	}
}

func TestAggregate(t *testing.T) {
	if got := Aggregate([]float64{1, 2, 3.5}); got != 6.5 {
		t.Fatalf("Aggregate = %v", got)
	}
	if got := Aggregate(nil); got != 0 {
		t.Fatalf("Aggregate(nil) = %v", got)
	}
}

// LinkLoads returns the per-link load implied by the given flows at the
// given rates, to confirm an allocation is feasible.
func LinkLoads(numLinks int, flows []Flow, rates []float64) []float64 {
	loads := make([]float64, numLinks)
	for i := range flows {
		for j, lid := range flows[i].Phi.Links {
			loads[lid] += float64(rates[i] * flows[i].Phi.Frac[j])
		}
	}
	return loads
}
