package sim

import (
	"testing"

	"r2c2/internal/core"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// §3.2 broadcast loss recovery: a start broadcast whose tree copies are
// dropped at congested ports must be retransmitted until every node learns
// of the flow. The congestion is constructed deterministically: every
// out-port of the origin is stuffed to within 16 bytes of its queue limit
// before the flow starts.
func TestBroadcastRetransmitUnderCongestion(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	// Three full data packets leave less than one broadcast of queue room.
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, QueueBytes: 3*1500 + 8})
	tab := routing.NewTable(g)
	r := NewR2C2(net, tab, R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS,
		Recompute: 100 * simtime.Microsecond,
		Reliable:  true, RTO: 300 * simtime.Microsecond, // data shares the stuffed ports
	})
	// Stuff every out-port of node 0 with four bulk packets each: one goes
	// straight onto the wire, three fill the queue to within 8 bytes.
	for _, lid := range g.Out(0) {
		to := g.Link(lid).To
		for i := 0; i < 4; i++ {
			net.Inject(&Packet{
				Kind: KindData, SizeBytes: 1500, Src: 0, Dst: to,
				Flow:    wire.MakeFlowID(63, 9999), // stray traffic, not an R2C2 flow
				Payload: 1500 - DataHeaderBytes,
				Path:    []topology.LinkID{lid},
			})
		}
	}
	id := r.StartFlow(0, 15, 4<<20, 1, 0)
	// The flow is the only one in any view: a node that holds a flow has
	// learnt of its start.
	held := make([]bool, g.Nodes())
	var watch func()
	watch = func() {
		for _, n := range r.nodes {
			held[n.ID] = held[n.ID] || r.vis.Len(n.Col) > 0
		}
		if !r.Ledger()[id].Done {
			eng.After(simtime.Microsecond, watch)
		}
	}
	watch()
	eng.Run(100 * simtime.Millisecond)
	if net.TotalDrops() == 0 {
		t.Fatal("the stuffed ports dropped nothing; test setup broken")
	}
	for n, ok := range held {
		if !ok {
			t.Fatalf("node %d never learnt of the flow: its dropped start broadcast was never retransmitted", n)
		}
	}
	// Despite the initial losses, the flow completed and visibility
	// converged everywhere (the finish eventually cleared all views).
	if !r.Ledger()[id].Done {
		t.Fatal("flow incomplete")
	}
	for n := 0; n < g.Nodes(); n++ {
		if got := r.View(topology.NodeID(n)).Len(); got != 0 {
			t.Fatalf("node %d still sees %d flows", n, got)
		}
	}
}

// Tombstones: a start arriving after the flow's finish must not resurrect
// the flow in the view.
func TestTombstoneBlocksStaleStart(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
	r := NewR2C2(net, routing.NewTable(g), R2C2Config{Protocol: routing.RPS})
	id := r.StartFlow(0, 5, 64<<10, 1, 0)
	eng.Run(50 * simtime.Millisecond) // flow done, finish broadcast seen
	if r.View(9).Len() != 0 {
		t.Fatal("view not drained")
	}
	// Replay the stale start at node 9 (a §3.2 retransmission that lost the
	// race against the finish).
	info := core.FlowInfo{
		ID: id, Src: 0, Dst: 5, Weight: 1,
		DemandKbps: core.UnlimitedDemand, Protocol: routing.RPS,
	}
	stale := &Packet{
		Kind:      KindBroadcast,
		SizeBytes: BroadcastBytes,
		Src:       0,
		Bcast:     info.StartBroadcast(0),
	}
	r.deliver(9, stale)
	if got := r.View(9).Len(); got != 0 {
		t.Fatalf("stale start resurrected a finished flow: view has %d entries", got)
	}
}
