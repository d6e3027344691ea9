package waterfill

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/topology"
)

// twoPass is the water-fill as it stood before the level cache: every freeze
// level rescans every touched link twice and walks every active flow's
// φ-vector. Its Allocate and fillRound are kept verbatim as the bit-exact
// oracle for the production fill.
type twoPass struct {
	cfg Config

	frozenSum []float64
	activeW   []float64
	order     []int

	touched   []topology.LinkID
	inTouched []bool
	saturated []bool
	active    []bool
}

func newTwoPass(cfg Config) *twoPass {
	return &twoPass{
		cfg:       cfg,
		frozenSum: make([]float64, cfg.NumLinks),
		activeW:   make([]float64, cfg.NumLinks),
		inTouched: make([]bool, cfg.NumLinks),
		saturated: make([]bool, cfg.NumLinks),
	}
}

// Allocate computes the rate for every flow; the returned slice is freshly
// allocated and owned by the caller. Flows with invalid weight or demand
// (non-positive, NaN or ±Inf weight; NaN or ±Inf demand) panic: they would
// never freeze, or poison the fill, and signal a caller bug.
func (a *twoPass) Allocate(flows []Flow) []float64 {
	for i := range flows {
		validateFlow(i, &flows[i])
	}
	rates := make([]float64, len(flows))
	cap := a.cfg.Capacity * (1 - a.cfg.Headroom)

	for i := range a.frozenSum {
		a.frozenSum[i] = 0
	}

	// Order flows by descending priority; equal priorities share a round.
	a.order = a.order[:0]
	for i := range flows {
		a.order = append(a.order, i)
	}
	sort.SliceStable(a.order, func(x, y int) bool {
		return flows[a.order[x]].Priority > flows[a.order[y]].Priority
	})

	for lo := 0; lo < len(a.order); {
		hi := lo
		prio := flows[a.order[lo]].Priority
		for hi < len(a.order) && flows[a.order[hi]].Priority == prio {
			hi++
		}
		a.fillRound(flows, a.order[lo:hi], cap, rates)
		lo = hi
	}
	return rates
}

// fillRound water-fills one priority class against the residual capacity
// left by higher classes, updating frozenSum with this class's consumption.
func (a *twoPass) fillRound(flows []Flow, idx []int, cap float64, rates []float64) {
	const eps = 1e-12

	if n := len(idx); n > len(a.active) {
		a.active = make([]bool, n)
	}
	active := a.active[:len(idx)]
	a.touched = a.touched[:0]
	nActive := 0
	for k, fi := range idx {
		f := &flows[fi]
		active[k] = false
		if len(f.Phi.Links) == 0 {
			// Host-local flow: it crosses no fabric link, so it contends with
			// nobody and its rate is min(demand, link capacity) — the NIC
			// loopback runs at line rate, and the headroom only protects
			// fabric links, so the full capacity applies. Unlimited demand
			// therefore means line rate, not zero (an Unlimited host-local
			// flow used to silently allocate 0).
			rates[fi] = hostLocalRate(&a.cfg, f)
			continue
		}
		if f.Demand <= 0 {
			rates[fi] = 0
			continue
		}
		active[k] = true
		nActive++
		for j, lid := range f.Phi.Links {
			a.activeW[lid] += f.Weight * f.Phi.Frac[j]
			if !a.inTouched[lid] {
				a.inTouched[lid] = true
				a.touched = append(a.touched, lid)
			}
		}
	}

	t := 0.0 // the fill level: rate per unit weight
	for nActive > 0 {
		// Next saturation level across touched links, recording the links
		// that achieve it so freezing is exact rather than epsilon-matched.
		tNext := math.MaxFloat64
		for _, l := range a.touched {
			w := a.activeW[l]
			if w <= eps || a.saturated[l] {
				continue
			}
			resid := cap - a.frozenSum[l]
			if resid < 0 {
				resid = 0
			}
			if s := resid / w; s < tNext {
				tNext = s
			}
		}
		// Next demand-freeze level across active flows.
		for k, fi := range idx {
			if !active[k] || flows[fi].Demand == Unlimited {
				continue
			}
			if s := flows[fi].Demand / flows[fi].Weight; s < tNext {
				tNext = s
			}
		}
		if tNext == math.MaxFloat64 {
			// No constraint binds: every remaining flow only crosses links
			// with no active weight left (fully saturated). Freeze at t.
			tNext = t
		}
		t = tNext
		level := t * (1 + 1e-9)

		// Mark links saturating at this level.
		for _, l := range a.touched {
			if a.saturated[l] {
				continue
			}
			w := a.activeW[l]
			if w <= eps {
				// A link all of whose flows froze elsewhere counts as
				// exhausted only if no capacity remains; it imposes no
				// further constraint either way.
				continue
			}
			resid := cap - a.frozenSum[l]
			if resid < 0 {
				resid = 0
			}
			if resid/w <= level {
				a.saturated[l] = true
			}
		}

		// Freeze demand-limited flows at their demand and every active flow
		// crossing a saturated link at weight·t.
		frozeAny := false
		for k, fi := range idx {
			if !active[k] {
				continue
			}
			f := &flows[fi]
			freeze := f.Demand != Unlimited && f.Demand/f.Weight <= level
			if !freeze {
				for _, lid := range f.Phi.Links {
					if a.saturated[lid] {
						freeze = true
						break
					}
				}
			}
			if !freeze {
				continue
			}
			r := f.Weight * t
			if f.Demand != Unlimited && f.Demand < r {
				r = f.Demand
			}
			rates[fi] = r
			active[k] = false
			nActive--
			frozeAny = true
			for j, lid := range f.Phi.Links {
				a.activeW[lid] -= f.Weight * f.Phi.Frac[j]
				a.frozenSum[lid] += r * f.Phi.Frac[j]
			}
		}
		if !frozeAny {
			// Remaining flows cross only links whose active weight dropped
			// to ~0 without saturating (all companions demand-froze); they
			// are unconstrained up the next binding link. Loop continues
			// with those links eligible again, but as a hard backstop
			// against pathological rounding, freeze everything at t if the
			// level did not advance.
			for k, fi := range idx {
				if !active[k] {
					continue
				}
				f := &flows[fi]
				r := f.Weight * t
				if f.Demand != Unlimited && f.Demand < r {
					r = f.Demand
				}
				rates[fi] = r
				active[k] = false
				nActive--
				for j, lid := range f.Phi.Links {
					a.activeW[lid] -= f.Weight * f.Phi.Frac[j]
					a.frozenSum[lid] += r * f.Phi.Frac[j]
				}
			}
		}
	}

	// Reset the per-link scratch this round touched (activeW is ~0 once all
	// flows froze; clear exactly to avoid drift across rounds and calls).
	for _, lid := range a.touched {
		a.activeW[lid] = 0
		a.inTouched[lid] = false
		a.saturated[lid] = false
	}
}

// fillCase is one torus with a production Allocator reused across every
// instance drawn on it, so scratch a round fails to clear shows up in the
// next instance's rates.
type fillCase struct {
	g     *topology.Graph
	tab   *routing.Table
	alloc *Allocator
}

func newFillCase(t testing.TB, k, dims int) *fillCase {
	g, err := topology.NewTorus(k, dims)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumLinks: g.NumLinks(), Capacity: 10e9, Headroom: 0.05}
	return &fillCase{g: g, tab: routing.NewTable(g), alloc: NewAllocator(cfg)}
}

// routedFlows draws n flows on the case's torus: every protocol, priorities
// 0–2, integer and fractional weights, finite (below and above a fair
// share), zero and negative demands, host-local flows and duplicates.
func (c *fillCase) routedFlows(rng *rand.Rand, n int) []Flow {
	protos := []routing.Protocol{routing.RPS, routing.DOR, routing.VLB, routing.WLB}
	flows := make([]Flow, n)
	for i := range flows {
		if i > 0 && rng.Intn(8) == 0 {
			flows[i] = flows[rng.Intn(i)] // a duplicate flow
			continue
		}
		f := Flow{Weight: 1 + float64(rng.Intn(4)), Priority: uint8(rng.Intn(3)), Demand: Unlimited}
		if rng.Intn(3) == 0 {
			f.Weight = 0.25 + rng.Float64()*4
		}
		if rng.Intn(12) != 0 { // else a host-local flow
			src := topology.NodeID(rng.Intn(c.g.Nodes()))
			dst := (src + 1 + topology.NodeID(rng.Intn(c.g.Nodes()-1))) % topology.NodeID(c.g.Nodes())
			f.Phi = c.tab.Phi(protos[rng.Intn(len(protos))], src, dst)
		}
		switch rng.Intn(6) {
		case 0, 1:
			f.Demand = rng.Float64() * 12e9
		case 2:
			f.Demand = float64(rng.Intn(3)-1) * 1e9 * rng.Float64() // zero or negative half the time
		}
		flows[i] = f
	}
	return flows
}

// sparseFlows draws flows over arbitrary φ-vectors on a few links: weights
// from 1e-17 to 1e6, so some links keep active weight above eps after all
// their flows froze and some never reach it. A light flow that
// freezes just below a shared link's level then moves the link's frozen
// load by an ulp while its active weight absorbs the subtraction unchanged.
func sparseFlows(rng *rand.Rand, numLinks, n int) []Flow {
	flows := make([]Flow, n)
	for i := range flows {
		f := Flow{Weight: 0.5 + rng.Float64()*1.5, Priority: uint8(rng.Intn(2)), Demand: Unlimited}
		switch rng.Intn(4) {
		case 0, 1:
			f.Weight = math.Pow(10, -17*rng.Float64())
		case 2:
			f.Weight = math.Pow(10, 6*rng.Float64())
		}
		for _, l := range rng.Perm(numLinks)[:1+rng.Intn(numLinks)] {
			frac := 1.0
			if rng.Intn(2) == 0 {
				frac = math.Pow(10, -8*rng.Float64())
			}
			f.Phi.Links = append(f.Phi.Links, topology.LinkID(l))
			f.Phi.Frac = append(f.Phi.Frac, frac)
		}
		if rng.Intn(3) == 0 {
			f.Demand = rng.Float64() * 2
		}
		flows[i] = f
	}
	return flows
}

// absorbedFlows builds that case outright: flows of weight w1 on link 0 and
// w2 > w1 on link 1, so link 1 saturates first, and a light flow across both
// whose weight is under half an ulp of w1. Link 0's active weight never
// registers the light flow, but its frozen load, in the finer binade below
// capacity, takes the light flow's rate when link 1 saturates.
func absorbedFlows(rng *rand.Rand) []Flow {
	w1 := 1 + rng.Float64()
	w2 := w1 * (1 + rng.Float64()*0.3)
	light := w1 * 0x1p-53 * (0.4 + rng.Float64()*0.6)
	flows := []Flow{
		{Phi: routing.Phi{Links: []topology.LinkID{0}, Frac: []float64{1}}, Weight: w1, Demand: Unlimited},
		{Phi: routing.Phi{Links: []topology.LinkID{1}, Frac: []float64{1}}, Weight: w2, Demand: Unlimited},
		{Phi: routing.Phi{Links: []topology.LinkID{0, 1}, Frac: []float64{1, 1}}, Weight: light, Demand: Unlimited},
	}
	rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
	return flows
}

// sameBits fails unless the production fill's rates equal the two-pass
// fill's bit for bit.
func sameBits(t testing.TB, what string, alloc *Allocator, flows []Flow) {
	t.Helper()
	got := alloc.Allocate(flows)
	want := newTwoPass(alloc.Config()).Allocate(flows)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s, flow %d of %d (%+v): rate %v, two-pass fill %v",
				what, i, len(flows), flows[i], got[i], want[i])
		}
	}
}

// TestFillMatchesTwoPass holds the level-cached fill to the two-pass fill
// bit for bit: 1,200 routed instances over four tori and every protocol,
// 400 wide-range sparse ones, 200 absorbed-weight ones, and one 512-flow
// view of the 8-ary 3-cube.
func TestFillMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := []*fillCase{newFillCase(t, 3, 2), newFillCase(t, 4, 2), newFillCase(t, 3, 3), newFillCase(t, 4, 3)}
	for i := 0; i < 1200; i++ {
		c := cases[i%len(cases)]
		n := 1 + rng.Intn(40)
		if i%10 == 0 {
			n = 60 + rng.Intn(100)
		}
		sameBits(t, "routed instance "+itoa(i), c.alloc, c.routedFlows(rng, n))
	}
	sparse := NewAllocator(Config{NumLinks: 6, Capacity: 1, Headroom: 0.05})
	for i := 0; i < 400; i++ {
		sameBits(t, "sparse instance "+itoa(i), sparse, sparseFlows(rng, 2+rng.Intn(5), 2+rng.Intn(8)))
	}
	for i := 0; i < 200; i++ {
		sameBits(t, "absorbed-weight instance "+itoa(i), sparse, absorbedFlows(rng))
	}
	big := newFillCase(t, 8, 3)
	flows := make([]Flow, 512)
	for i := range flows {
		src := topology.NodeID(rng.Intn(big.g.Nodes()))
		dst := (src + 1 + topology.NodeID(rng.Intn(big.g.Nodes()-1))) % topology.NodeID(big.g.Nodes())
		flows[i] = Flow{Phi: big.tab.Phi(routing.RPS, src, dst), Weight: 1, Demand: Unlimited}
	}
	sameBits(t, "512-flow RPS view", big.alloc, flows)
}

// FuzzAllocateMatchesTwoPass decodes arbitrary bytes into a flow set — five
// bytes a flow: endpoints, protocol, priority, weight and demand, or a copy
// of an earlier flow — on a 4-ary 2-cube, or as sparse φ-vectors when the
// first byte is odd, and requires bit-identical rates from both fills. One
// Allocator per mode serves every input, so stale scratch shows.
func FuzzAllocateMatchesTwoPass(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 0, 3, 0x7f, 9, 200, 3, 1, 0x10, 250, 3, 2, 5, 0xc3, 0, 7})
	f.Add([]byte{2, 0, 15, 0, 0, 0, 0, 15, 0, 0, 0, 5, 10, 0x40, 0x80, 40, 255, 255, 255, 255, 255})
	c := newFillCase(f, 4, 2)
	sparse := NewAllocator(Config{NumLinks: 8, Capacity: 1, Headroom: 0.05})
	protos := []routing.Protocol{routing.RPS, routing.DOR, routing.VLB, routing.WLB}
	var mu sync.Mutex
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, data := data[0], data[1:]
		var flows []Flow
		for ; len(data) >= 5 && len(flows) < 256; data = data[5:] {
			b := data[:5]
			if b[2]&0x80 != 0 && len(flows) > 0 {
				flows = append(flows, flows[int(b[4])%len(flows)])
				continue
			}
			fl := Flow{
				Priority: (b[2] >> 4) % 3,
				Weight:   float64(1+b[2]&0x0f) / 4,
				Demand:   Unlimited,
			}
			if mode&1 == 0 {
				if src, dst := topology.NodeID(b[0]%16), topology.NodeID(b[1]%16); src != dst {
					fl.Phi = c.tab.Phi(protos[b[3]&3], src, dst)
				}
			} else {
				fl.Weight = math.Pow(10, float64(b[2]&0x0f)-6)
				for l := 0; l < 8; l++ {
					if b[0]>>l&1 != 0 {
						fl.Phi.Links = append(fl.Phi.Links, topology.LinkID(l))
						fl.Phi.Frac = append(fl.Phi.Frac, math.Pow(10, -float64(b[1]>>4))*float64(1+b[1]&0x0f))
					}
				}
			}
			switch b[3] >> 6 {
			case 1:
				fl.Demand = float64(b[4]) / 64 * c.alloc.Config().Capacity
				if mode&1 != 0 {
					fl.Demand = float64(b[4]) / 128
				}
			case 2:
				fl.Demand = 0
			}
			flows = append(flows, fl)
		}
		mu.Lock()
		defer mu.Unlock()
		if mode&1 == 0 {
			sameBits(t, "fuzzed routed flows", c.alloc, flows)
		} else {
			sameBits(t, "fuzzed sparse flows", sparse, flows)
		}
	})
}

// TestAllocateAllocFree: once an Allocator's scratch has grown to a flow
// set, Allocate allocates only the rates it returns.
func TestAllocateAllocFree(t *testing.T) {
	c := newFillCase(t, 4, 3)
	flows := c.routedFlows(rand.New(rand.NewSource(7)), 200)
	if allocs := testing.AllocsPerRun(100, func() { c.alloc.Allocate(flows) }); allocs > 1 {
		t.Errorf("%v allocations per Allocate, want at most 1 (the returned rates)", allocs)
	}
}

// Config returns the allocator's configuration.
func (a *Allocator) Config() Config { return a.cfg }
