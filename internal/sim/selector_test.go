package sim

import (
	"testing"

	"r2c2/internal/genetic"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// A sparse long-flow workload (VLB territory): the selector must move
// flows off minimal routing and the reassignment must reach every view.
func TestSelectorReassignsSparseLoad(t *testing.T) {
	g := torus(t, 4, 3)
	eng, _, r := newR2C2Net(t, g, R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS, Recompute: 200 * simtime.Microsecond})
	ga := genetic.Config{Population: 30, MaxGens: 15, Seed: 3}
	runFor := 30 * simtime.Millisecond
	if testing.Short() {
		// The -race CI job runs -short: a smaller GA still finds the same
		// reassignment on three flows, at a fraction of the search cost.
		ga = genetic.Config{Population: 12, MaxGens: 8, Seed: 3}
		runFor = 15 * simtime.Millisecond
	}
	sel := NewSelector(r, SelectorConfig{
		Period: 5 * simtime.Millisecond,
		MinAge: simtime.Millisecond,
		GA:     ga,
	})
	sel.Start()

	// Few long flows across the rack: low load, where VLB's non-minimal
	// spreading wins (the Figure 18 low-L regime).
	flows := []wire.FlowID{
		r.StartFlow(0, 63, 512<<20, 1, 0),
		r.StartFlow(5, 58, 512<<20, 1, 0),
		r.StartFlow(10, 53, 512<<20, 1, 0),
	}

	eng.Run(runFor)
	if len(sel.seen) == 0 {
		t.Fatal("selector never ran: no round has seen the flows")
	}
	if sel.Reassignments == 0 {
		t.Fatal("selector reassigned nothing on a sparse long-flow load")
	}
	// At least one flow must be visibly on VLB in EVERY node's view.
	movedEverywhere := 0
	for _, id := range flows {
		allVLB := true
		for n := 0; n < g.Nodes(); n++ {
			info, ok := r.View(topology.NodeID(n)).Get(id)
			if !ok {
				t.Fatalf("node %d lost flow %v", n, id)
			}
			if info.Protocol != routing.VLB {
				allVLB = false
				break
			}
		}
		if allVLB {
			movedEverywhere++
		}
	}
	if movedEverywhere == 0 {
		t.Fatal("no reassignment propagated to all views")
	}
}

// A dense load where minimal routing is already optimal: the selector must
// leave the assignment alone (the MinGain gate).
func TestSelectorLeavesGoodAssignmentsAlone(t *testing.T) {
	g := torus(t, 4, 2)
	eng, _, r := newR2C2Net(t, g, R2C2Config{
		Headroom: 0.05, Protocol: routing.DOR, Recompute: 200 * simtime.Microsecond})
	sel := NewSelector(r, SelectorConfig{
		Period:    5 * simtime.Millisecond,
		MinAge:    simtime.Millisecond,
		Protocols: []routing.Protocol{routing.DOR}, // one choice: nothing to gain
		GA:        genetic.Config{Population: 10, MaxGens: 3, Seed: 1},
	})
	// Two choices are required by the GA; use DOR twice worth of a single
	// protocol set by giving DOR and DOR-equivalent ECMP? Keep it honest:
	// use DOR+RPS but a workload where both tie (nearest-neighbour flows
	// have a single minimal path, so RPS == DOR exactly).
	sel.cfg.Protocols = []routing.Protocol{routing.DOR, routing.RPS}
	sel.Start()
	r.StartFlow(0, 1, 256<<20, 1, 0) // neighbours: single minimal path
	r.StartFlow(2, 3, 256<<20, 1, 0)
	eng.Run(25 * simtime.Millisecond)
	if len(sel.seen) == 0 {
		t.Fatal("selector never ran: no round has seen the flows")
	}
	if sel.Reassignments != 0 {
		t.Fatalf("selector churned %d reassignments with nothing to gain", sel.Reassignments)
	}
}

// Selector must tolerate flows finishing between rounds.
func TestSelectorHandlesChurn(t *testing.T) {
	g := torus(t, 4, 2)
	eng, _, r := newR2C2Net(t, g, R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS, Recompute: 100 * simtime.Microsecond})
	sel := NewSelector(r, SelectorConfig{
		Period: 2 * simtime.Millisecond,
		MinAge: 500 * simtime.Microsecond,
		GA:     genetic.Config{Population: 16, MaxGens: 5, Seed: 2},
	})
	sel.Start()
	for i := 0; i < 12; i++ {
		src := topology.NodeID(i % g.Nodes())
		dst := topology.NodeID((i*5 + 1) % g.Nodes())
		if src == dst {
			continue
		}
		r.StartFlow(src, dst, int64(1+i)<<19, 1, 0)
	}
	// Rounds run while the flows do (one must see them) and after they have
	// all finished.
	saw := 0
	for at := 2 * simtime.Millisecond; at <= 50*simtime.Millisecond; at += 2 * simtime.Millisecond {
		eng.Run(at)
		saw = max(saw, len(sel.seen))
	}
	if saw == 0 {
		t.Fatal("no selector round saw a flow")
	}
	// All flows finished; their ages must not leak.
	if len(sel.seen) != 0 {
		t.Fatalf("selector leaked %d flow-age entries", len(sel.seen))
	}
}
