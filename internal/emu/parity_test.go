package emu

import (
	"math"
	"slices"
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/topology"
)

// TestFaultParity drives one fault script, with events out of range,
// repeated, partitioning and valid, through the simulator's transport and
// the emulated rack, each through its one entry point, InjectFault. Both
// must accept and reject the same events, as the script says, and end on
// the same failure state; an event with an endpoint out of range is an
// error, not a panic, and a valid fault still succeeds after it. Detection is an hour away, so no fabric is swapped meanwhile.
func TestFaultParity(t *testing.T) {
	g, err := topology.NewTorus(4, 2) // node 0's cables go to 1, 3, 4 and 12
	if err != nil {
		t.Fatal(err)
	}
	down := func(a, b topology.NodeID) faults.Event {
		return faults.Event{Kind: faults.LinkDown, A: a, B: b, Detect: time.Hour}
	}
	up := func(a, b topology.NodeID) faults.Event {
		return faults.Event{Kind: faults.LinkRepair, A: a, B: b, Detect: time.Hour}
	}
	crash := func(n topology.NodeID) faults.Event {
		return faults.Event{Kind: faults.NodeDown, Node: n, Detect: time.Hour}
	}
	drop := func(a, b topology.NodeID, p float64) faults.Event {
		return faults.Event{Kind: faults.LinkDrop, A: a, B: b, DropProb: p}
	}
	script := []struct {
		ev faults.Event
		ok bool
	}{
		{down(999, 0), false}, {up(-1, 0), false}, {crash(999), false}, {crash(-1), false},
		{drop(-1, 0, 0.1), false}, {drop(0, 1, 1.5), false}, {drop(0, 1, math.NaN()), false},
		{down(0, 1), true}, {down(1, 0), false}, {down(0, 2), false}, // no cable 0-2
		{drop(2, 3, 0.01), true}, {down(0, 3), true}, {down(0, 4), true},
		{down(0, 12), false}, // node 0's last cable
		{crash(5), true}, {crash(5), false}, {up(5, 6), false},
		{up(0, 1), true}, {up(0, 1), false}, {down(0, 12), true},
		{crash(1), false}, // node 0's last neighbour
		{down(2, 3), true},
	}

	s := sim.NewR2C2(sim.NewNetwork(g, &sim.Engine{}, sim.NetConfig{}), routing.NewTable(g), sim.R2C2Config{})
	r, err := New(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop) // joins the detection timers; the rack never starts
	for i, step := range script {
		simErr, emuErr := s.InjectFault(step.ev), r.InjectFault(step.ev)
		if (simErr == nil) != step.ok || (emuErr == nil) != step.ok {
			t.Fatalf("step %d, %v: sim error %v, emu error %v; want accepted %v", i, step.ev, simErr, emuErr, step.ok)
		}
	}
	// A rejected drop probability installs nothing.
	for _, p := range []float64{2, -0.5, math.NaN(), math.Inf(1)} {
		if s.InjectFault(drop(1, 2, p)) == nil || r.InjectFault(drop(1, 2, p)) == nil {
			t.Errorf("a drop probability of %v accepted", p)
		}
	}
	for _, pair := range [][2]topology.NodeID{{1, 2}, {2, 1}} {
		lid, _ := g.LinkBetween(pair[0], pair[1])
		if p := math.Float64frombits(r.ports[lid].dropBits.Load()); p != 0 {
			t.Errorf("emulator link %d drops with probability %v after rejected events", lid, p)
		}
	}
	if s.InjectFault(drop(1, 2, 1)) != nil || r.InjectFault(drop(1, 2, 1)) != nil {
		t.Error("a drop probability of 1 rejected")
	}
	simLinks, simDead := s.Faults.Failed()
	emuLinks, emuDead := r.faults.Failed()
	if !slices.Equal(simLinks, emuLinks) || !slices.Equal(simDead, emuDead) {
		t.Fatalf("failure states differ: sim links %v nodes %v, emu links %v nodes %v", simLinks, simDead, emuLinks, emuDead)
	}
	wantLinks, wantDead := make([]bool, g.NumLinks()), make([]bool, g.Vertices())
	for _, c := range [][2]topology.NodeID{{0, 3}, {0, 4}, {0, 12}, {2, 3}} {
		for _, p := range [][2]topology.NodeID{c, {c[1], c[0]}} {
			lid, _ := g.LinkBetween(p[0], p[1])
			wantLinks[lid] = true
		}
	}
	for _, lid := range slices.Concat(g.Out(5), g.In(5)) {
		wantLinks[lid] = true
	}
	wantDead[5] = true
	if !slices.Equal(simLinks, wantLinks) || !slices.Equal(simDead, wantDead) {
		t.Fatalf("failure state: links %v nodes %v, want links %v nodes %v", simLinks, simDead, wantLinks, wantDead)
	}
}
