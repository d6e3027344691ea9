package core

import (
	"slices"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

type testFlow struct{ info FlowInfo }

func (f *testFlow) Info() *FlowInfo { return &f.info }

func newTestFlow(src, dst topology.NodeID, seq uint16) *testFlow {
	return &testFlow{FlowInfo{ID: wire.MakeFlowID(uint16(src), seq), Src: src, Dst: dst, Weight: 1, DemandKbps: UnlimitedDemand}}
}

// newTestNode returns node 1, holding column 2 of a three-column Visibility,
// on three trees.
func newTestNode() (*Visibility, *Node[*testFlow]) {
	vis := NewVisibility(3)
	n := NewNode[*testFlow](1, &vis, 2, 3)
	return &vis, &n
}

// Every announcement takes the next tree, across kinds of event: the
// cursor belongs to the node, not to a flow.
func TestNodeTreeRotation(t *testing.T) {
	_, n := newTestNode()
	a, b := newTestFlow(1, 4, 0), newTestFlow(1, 5, 1)
	first := func(b wire.Broadcast, _ bool) wire.Broadcast { return b }
	var trees []uint8
	for _, bc := range []wire.Broadcast{n.Start(a), n.Start(b), first(n.SetDemand(a, 7)), first(n.SetProtocol(b, routing.DOR)),
		first(n.Finish(a)), n.Retransmit(wire.Broadcast{Tree: 0})} {
		trees = append(trees, bc.Tree)
	}
	if want := []uint8{0, 1, 2, 0, 1, 2}; !slices.Equal(trees, want) {
		t.Fatalf("trees %v, want %v", trees, want)
	}
}

// Each change holds the origin's own view before it returns the broadcast,
// and a change to a flow that is not live returns none.
func TestNodeHoldsBeforeFlood(t *testing.T) {
	vis, n := newTestNode()
	f := newTestFlow(1, 4, 0)
	if b := n.Start(f); b.Event != wire.EventFlowStart {
		t.Fatalf("start broadcast %v", b)
	}
	if got, ok := vis.Get(n.Col, f.info.ID); !ok || got != f.info {
		t.Fatalf("own view after start: %v %v", got, ok)
	}
	if b, ok := n.SetDemand(f, 42); !ok || b.Event != wire.EventDemandUpdate || b.DemandKbps != 42 {
		t.Fatalf("demand broadcast %v", b)
	}
	if got, _ := vis.Get(n.Col, f.info.ID); got.DemandKbps != 42 {
		t.Fatalf("own view holds demand %d, want 42", got.DemandKbps)
	}
	if b, ok := n.SetProtocol(f, routing.VLB); !ok || b.Event != wire.EventRouteChange || routing.Protocol(b.RP) != routing.VLB {
		t.Fatalf("route broadcast %v", b)
	}
	if got, _ := vis.Get(n.Col, f.info.ID); got.Protocol != routing.VLB {
		t.Fatalf("own view holds protocol %v, want VLB", got.Protocol)
	}
	if vis.Len(0) != 0 || vis.Len(1) != 0 {
		t.Fatal("another node's column moved before any flood")
	}
	if b, ok := n.Finish(f); !ok || b.Event != wire.EventFlowFinish {
		t.Fatalf("finish broadcast %v", b)
	}
	if _, ok := vis.Get(n.Col, f.info.ID); ok || len(n.Flows()) != 0 {
		t.Fatal("finished flow still live at its origin")
	}
	_, finished := n.Finish(f)
	_, demanded := n.SetDemand(f, 1)
	_, rerouted := n.SetProtocol(f, routing.RPS)
	if finished || demanded || rerouted {
		t.Fatal("a change to a finished flow announced something")
	}
}

// A node applies other nodes' floods and ignores its own.
func TestNodeIgnoresOwnBroadcast(t *testing.T) {
	vis, n := newTestNode()
	own, other := newTestFlow(1, 4, 0), newTestFlow(2, 4, 0)
	b := own.info.StartBroadcast(0)
	n.Receive(b)
	if vis.Len(n.Col) != 0 {
		t.Fatal("the origin applied its own flood")
	}
	n.Receive(other.info.StartBroadcast(0))
	if _, ok := vis.Get(n.Col, other.info.ID); !ok {
		t.Fatal("another node's start not applied")
	}
}

// Reannounce abandons the flows to dead nodes, returning them, and starts
// the rest in creation order, on successive trees; a dead node gives up all
// its flows.
func TestNodeReannounce(t *testing.T) {
	vis, n := newTestNode()
	flows := []*testFlow{newTestFlow(1, 7, 3), newTestFlow(1, 5, 1), newTestFlow(1, 4, 2), newTestFlow(1, 6, 0)}
	for _, f := range flows {
		n.Start(f)
	}
	dead := make([]bool, 8)
	dead[5] = true
	abandoned, starts := n.Reannounce(dead)
	if !slices.Equal(abandoned, []*testFlow{flows[1]}) {
		t.Fatalf("abandoned %v, want the flow to node 5", abandoned)
	}
	var ids []wire.FlowID
	var trees []uint8
	for _, b := range starts {
		ids, trees = append(ids, b.Flow()), append(trees, b.Tree)
		if b.Event != wire.EventFlowStart {
			t.Fatalf("re-announcement %v is not a start", b)
		}
	}
	if want := []wire.FlowID{flows[0].info.ID, flows[2].info.ID, flows[3].info.ID}; !slices.Equal(ids, want) {
		t.Fatalf("re-announced %v, want creation order %v", ids, want)
	}
	if want := []uint8{1, 2, 0}; !slices.Equal(trees, want) {
		t.Fatalf("trees %v, want %v after four starts", trees, want)
	}
	if !slices.Equal(n.Flows(), []*testFlow{flows[0], flows[2], flows[3]}) || vis.Len(n.Col) != 4 {
		t.Fatal("Reannounce touched more than the abandoned flow's sender")
	}
	dead[1] = true
	if gone := n.Abandon(dead); len(gone) != 3 || len(n.Flows()) != 0 {
		t.Fatalf("dead node gave up %d flows and kept %d", len(gone), len(n.Flows()))
	}
	if _, starts := n.Reannounce(dead); len(starts) != 0 {
		t.Fatal("a dead node re-announced")
	}
}

// TestNodeStartFinishAllocFree: a node announces a flow's start and finish
// as values, so a warmed Start+Finish allocates nothing; each backend's
// flood is the only copy that may reach the heap. The node owns the one
// column of its Visibility, as an emulator node does, so a finish retires
// the row for the next flow to reuse. The warm-up runs every sequence
// number once, growing the tombstone rows to their full length.
func TestNodeStartFinishAllocFree(t *testing.T) {
	vis := NewVisibility(1)
	n := NewNode[*testFlow](1, &vis, 0, 3)
	f := newTestFlow(1, 4, 0)
	var seq uint16
	cycle := func() {
		f.info.ID = wire.MakeFlowID(1, seq)
		seq++
		if b := n.Start(f); b.Event != wire.EventFlowStart {
			t.Fatalf("start broadcast %v", b)
		}
		if b, ok := n.Finish(f); !ok || b.Event != wire.EventFlowFinish {
			t.Fatalf("finish broadcast %v (%v)", b, ok)
		}
	}
	for range 1 << 16 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("%v allocations per Start+Finish, want 0", allocs)
	}
}
