package waterfill

import (
	"math"
	"math/rand"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/topology"
)

// ratesAgree is the oracle tolerance: 1e-6 relative, with an absolute
// floor of 1e-9 of link capacity (10 bits/s at 10 Gbps) so an exact zero
// on one side and a few ulps of accumulated-load dust on the other
// compare equal.
func ratesAgree(a, b, capacityBits float64) bool {
	d := math.Abs(a - b)
	return d <= math.Max(1e-6*math.Max(math.Abs(a), math.Abs(b)), 1e-9*capacityBits)
}

func TestIncrementalBasicAddRemove(t *testing.T) {
	inc := NewIncremental(Config{NumLinks: 1, Capacity: 9})
	f := netFlow(1)
	f.Phi = phi(0, 1)
	h1 := inc.Add(f)
	if r := inc.Rate(h1); math.Abs(r-9) > 1e-9 {
		t.Fatalf("single flow rate = %v, want 9", r)
	}
	h2 := inc.Add(f)
	h3 := inc.Add(f)
	for _, h := range []Handle{h1, h2, h3} {
		if r := inc.Rate(h); math.Abs(r-3) > 1e-9 {
			t.Fatalf("rate = %v, want 3", r)
		}
	}
	inc.Remove(h2)
	for _, h := range []Handle{h1, h3} {
		if r := inc.Rate(h); math.Abs(r-4.5) > 1e-9 {
			t.Fatalf("after remove: rate = %v, want 4.5", r)
		}
	}
	if inc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", inc.Len())
	}
}

func TestIncrementalDemandUpdate(t *testing.T) {
	inc := NewIncremental(Config{NumLinks: 1, Capacity: 10})
	f := netFlow(1)
	f.Phi = phi(0, 1)
	h1, h2 := inc.Add(f), inc.Add(f)
	capped := f
	capped.Demand = 2
	inc.Update(h1, capped)
	if r := inc.Rate(h1); math.Abs(r-2) > 1e-9 {
		t.Fatalf("demand-capped rate = %v, want 2", r)
	}
	if r := inc.Rate(h2); math.Abs(r-8) > 1e-9 {
		t.Fatalf("released bandwidth not reallocated: %v, want 8", r)
	}
}

func TestIncrementalPriorityChange(t *testing.T) {
	inc := NewIncremental(Config{NumLinks: 1, Capacity: 10})
	f := netFlow(1)
	f.Phi = phi(0, 1)
	h1, h2 := inc.Add(f), inc.Add(f)
	hi := f
	hi.Priority = 3
	inc.Update(h1, hi)
	if r := inc.Rate(h1); math.Abs(r-10) > 1e-9 {
		t.Fatalf("promoted flow rate = %v, want 10", r)
	}
	if r := inc.Rate(h2); r > 1e-9 {
		t.Fatalf("starved flow rate = %v, want 0", r)
	}
	inc.Update(h1, f) // demote back
	for _, h := range []Handle{h1, h2} {
		if r := inc.Rate(h); math.Abs(r-5) > 1e-9 {
			t.Fatalf("after demotion: rate = %v, want 5", r)
		}
	}
}

func TestIncrementalHostLocal(t *testing.T) {
	inc := NewIncremental(Config{NumLinks: 1, Capacity: 10, Headroom: 0.05})
	h := inc.Add(Flow{Weight: 1, Demand: Unlimited}) // empty Phi
	if r := inc.Rate(h); r != 10 {
		t.Fatalf("host-local unlimited rate = %v, want line rate 10", r)
	}
	inc.Update(h, Flow{Weight: 1, Demand: 4})
	if r := inc.Rate(h); r != 4 {
		t.Fatalf("host-local capped rate = %v, want 4", r)
	}
}

func TestIncrementalDeadHandlePanics(t *testing.T) {
	inc := NewIncremental(Config{NumLinks: 1, Capacity: 1})
	f := netFlow(1)
	f.Phi = phi(0, 1)
	h := inc.Add(f)
	inc.Remove(h)
	assertPanics(t, "rate of dead handle", func() { inc.Rate(h) })
	assertPanics(t, "double remove", func() { inc.Remove(h) })
	assertPanics(t, "unknown handle", func() { inc.Remove(42) })
}

// churner drives identical random flow-event streams through an Incremental
// and the from-scratch Allocator.
type churner struct {
	t    *testing.T
	rng  *rand.Rand
	tab  *routing.Table
	g    *topology.Graph
	cfg  Config
	inc  *Incremental
	ref  *Allocator
	live []Handle // handles with live flows, in insertion order
	last string   // description of the most recent event, for failure dumps
}

func newChurner(t *testing.T, seed int64) *churner {
	g, err := topology.NewTorus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumLinks: g.NumLinks(), Capacity: 10e9, Headroom: 0.05}
	return &churner{
		t:   t,
		rng: rand.New(rand.NewSource(seed)),
		tab: routing.NewTable(g),
		g:   g,
		cfg: cfg,
		inc: NewIncremental(cfg),
		ref: NewAllocator(cfg),
	}
}

// randomFlow draws a spec mixing protocols, weights, priorities, demand
// caps and the occasional host-local flow.
func (c *churner) randomFlow() Flow {
	f := Flow{
		Weight:   1 + float64(c.rng.Intn(4)),
		Priority: uint8(c.rng.Intn(3)),
		Demand:   Unlimited,
	}
	switch c.rng.Intn(10) {
	case 0: // host-local: empty φ
		if c.rng.Intn(2) == 0 {
			f.Demand = c.rng.Float64() * 2e10
		}
		return f
	default:
		protos := []routing.Protocol{routing.RPS, routing.DOR, routing.VLB, routing.WLB}
		src := topology.NodeID(c.rng.Intn(c.g.Nodes()))
		dst := topology.NodeID(c.rng.Intn(c.g.Nodes()))
		for dst == src {
			dst = topology.NodeID(c.rng.Intn(c.g.Nodes()))
		}
		f.Phi = c.tab.Phi(protos[c.rng.Intn(len(protos))], src, dst)
	}
	switch c.rng.Intn(3) {
	case 0: // demand-capped, sometimes below fair share, sometimes above
		f.Demand = c.rng.Float64() * 12e9
	case 1:
		if c.rng.Intn(5) == 0 {
			f.Demand = 0 // paused application
		}
	}
	return f
}

// FlowSpec returns the committed spec of a live flow.
func (inc *Incremental) FlowSpec(h Handle) Flow {
	inc.check(h)
	return inc.flows[h]
}

// step applies one random event to the incremental allocator.
func (c *churner) step(maxFlows int) {
	switch {
	case len(c.live) == 0 || (len(c.live) < maxFlows && c.rng.Intn(2) == 0):
		h := c.inc.Add(c.randomFlow())
		c.live = append(c.live, h)
		c.last = "add handle " + itoa(int(h))
	case c.rng.Intn(2) == 0: // demand/weight/priority/route change
		i := c.rng.Intn(len(c.live))
		h := c.live[i]
		f := c.inc.FlowSpec(h)
		switch c.rng.Intn(4) {
		case 0:
			f.Demand = c.rng.Float64() * 12e9
			c.last = "update handle " + itoa(int(h)) + " demand-cap"
		case 1:
			f.Demand = Unlimited
			c.last = "update handle " + itoa(int(h)) + " demand-unlimited"
		case 2:
			f.Priority = uint8(c.rng.Intn(3))
			c.last = "update handle " + itoa(int(h)) + " priority"
		default:
			f = c.randomFlow()
			c.last = "update handle " + itoa(int(h)) + " respec"
		}
		c.inc.Update(h, f)
	default:
		i := c.rng.Intn(len(c.live))
		h := c.live[i]
		c.live[i] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		c.inc.Remove(h)
		c.last = "remove handle " + itoa(int(h))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// verify cross-checks every live rate against a from-scratch allocation.
func (c *churner) verify(event int) {
	specs := make([]Flow, len(c.live))
	for i, h := range c.live {
		specs[i] = c.inc.FlowSpec(h)
	}
	want := c.ref.Allocate(specs)
	for i, h := range c.live {
		got := c.inc.Rate(h)
		if !ratesAgree(got, want[i], c.cfg.Capacity) {
			c.t.Fatalf("event %d: flow %d (handle %d): incremental %v, from-scratch %v (rel %v)",
				event, i, h, got, want[i], math.Abs(got-want[i])/math.Max(math.Abs(want[i]), 1))
		}
	}
}

// The differential oracle of the incremental path: >=10k random add /
// remove / demand-change / priority-change / route-change events with
// mixed priorities, demands and host-local flows, cross-checked against
// the from-scratch allocator after every single event. This is the test
// that licenses wiring the incremental path into the control plane.
func TestIncrementalOracle10kEvents(t *testing.T) {
	events := 10500
	maxFlows := 96
	if testing.Short() {
		events = 1500
	}
	c := newChurner(t, 20250806)
	for ev := 0; ev < events; ev++ {
		c.step(maxFlows)
		c.verify(ev)
	}
	if c.inc.Solves == 0 {
		t.Fatal("incremental path never solved anything")
	}
}
