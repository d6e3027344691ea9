package sim

import (
	"math/rand"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// The PFQ back-pressure invariant: no node ever buffers more than its
// per-flow buffer of packets of one flow. Checked continuously via a
// monitoring event while a contended workload runs.
func TestPFQBufferBound(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	const bound = 3
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
	tab := routing.NewTable(g)
	pfq := newPFQ(net, tab, 7, bound)
	var ids []wire.FlowID
	for s := 1; s <= 6; s++ {
		ids = append(ids, pfq.StartFlow(topology.NodeID(s), 0, 2<<20))
	}
	violations := 0
	var monitor func()
	monitor = func() {
		for n := 0; n < g.Nodes(); n++ {
			for _, id := range ids {
				if c := net.BufCount(topology.NodeID(n), id); c > bound {
					violations++
				}
			}
		}
		if eng.Pending() {
			eng.After(10*simtime.Microsecond, monitor)
		}
	}
	eng.After(simtime.Microsecond, monitor)
	eng.Run(2 * simtime.Second)
	if violations != 0 {
		t.Fatalf("back-pressure bound violated %d times", violations)
	}
	for _, id := range ids {
		if !pfq.Ledger()[id].Done {
			t.Fatalf("flow %v incomplete", id)
		}
	}
	if net.TotalDrops() != 0 {
		t.Fatal("PFQ dropped packets")
	}
}

// A FIFO network carries no PFQ state and reports zero buffer counts.
func TestBufAccountingFIFOMode(t *testing.T) {
	g := torus(t, 3, 2)
	net := NewNetwork(g, &Engine{}, NetConfig{})
	if net.pfq != nil {
		t.Fatal("FIFO network allocated per-flow-queue state")
	}
	if net.BufCount(0, 1) != 0 {
		t.Fatal("FIFO mode buf count nonzero")
	}
}

// BufCount returns the packets of a flow charged to a node's PFQ buffer:
// zero on a FIFO network.
func (n *Network) BufCount(node topology.NodeID, flow wire.FlowID) int {
	if n.pfq == nil {
		return 0
	}
	if c := n.credit(node, flow); c != nil {
		return int(c.n)
	}
	return 0
}

// PFQ's per-flow state lives only while the flow has packets queued: three
// thousand flows, one after another, through a 4×4 torus leave every port's
// ring and every node's credit list empty, every queue record back on the
// free list, and no more records made than (port, flow) queues were ever
// open at once. That peak is bracketed: from below by the most seen open
// between event instants, from above by the most one flow can open — one
// queue per link of its routes, since only one flow is in the fabric.
func TestPFQStateRetires(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
	tab := routing.NewTable(g)
	pfq := NewPFQ(net, tab, 11)
	rng := rand.New(rand.NewSource(4))
	nodes := g.Nodes()
	seen, most := 0, 0
	for i := 0; i < 3000; i++ {
		src := topology.NodeID(rng.Intn(nodes))
		dst := (src + 1 + topology.NodeID(rng.Intn(nodes-1))) % topology.NodeID(nodes)
		id := pfq.StartFlow(src, dst, int64(1+rng.Intn(8*MaxPayload)))
		most = max(most, len(tab.Phi(routing.RPS, src, dst).Links))
		for {
			at, ok := eng.NextEventAt()
			if !ok {
				break
			}
			eng.Run(at)
			open := 0
			for _, pp := range net.pfq.ports {
				open += len(pp.rr)
			}
			seen = max(seen, open)
		}
		if !pfq.flows.get(id).rec.Done {
			t.Fatalf("flow %d (%d → %d) did not complete", i, src, dst)
		}
	}
	for lid, p := range net.ports {
		if rr := net.pfq.ports[lid].rr; len(rr) != 0 || p.queued != 0 {
			t.Errorf("port %d: %d flows on its ring, %d bytes queued", lid, len(rr), p.queued)
		}
	}
	for node, cs := range net.pfq.credits {
		if len(cs) != 0 {
			t.Errorf("node %d: credit list still holds %v", node, cs)
		}
	}
	if len(net.pfq.free) != len(net.pfq.flows) {
		t.Errorf("%d queue records made, %d back on the free list", len(net.pfq.flows), len(net.pfq.free))
	}
	if made := len(net.pfq.flows); made < seen || made > most {
		t.Errorf("%d queue records made for 3000 flows; at most %d queues seen open at once, at most %d possible", made, seen, most)
	}
}

// TestPFQRoundRobin pins the service order of a PFQ port: flows take turns a
// packet at a time; a flow whose queue drains leaves the ring and the turn
// passes to the flow after it, not the one after that; and a flow blocked on
// the next node's credits is passed over, then served once the kick that
// returns them arrives.
func TestPFQRoundRobin(t *testing.T) {
	const a, b, c, z = 1, 2, 3, 9 // flow numbers; packet k of flow f is Seq 10f+k
	inject := func(r *portRig, flow, k int) {
		last := r.g.Nodes() - 1
		pkt := &Packet{Kind: KindData, SizeBytes: MTU, Payload: MaxPayload, Seq: uint32(10*flow + k),
			Flow: wire.MakeFlowID(0, uint16(flow)), Src: 0, Dst: topology.NodeID(last)}
		for n := 0; n < last; n++ {
			pkt.Path = append(pkt.Path, r.link(n))
		}
		r.net.Inject(pkt)
	}
	order := func(r *portRig, want ...uint32) {
		t.Helper()
		if len(r.seqs) != len(want) {
			t.Fatalf("delivered %v, want %v", r.seqs, want)
		}
		for i := range want {
			if r.seqs[i] != want[i] {
				t.Fatalf("delivered %v, want %v", r.seqs, want)
			}
		}
	}
	// Each case puts z's packet on the wire first, so every other packet
	// queues before the port picks again.
	t.Run("flows take turns", func(t *testing.T) {
		r := newPortRig(t, 2, pfqBufferPackets)
		inject(r, z, 0)
		for _, f := range []int{a, b, c} {
			inject(r, f, 0)
			inject(r, f, 1)
		}
		r.eng.Run(simtime.Millisecond)
		order(r, 90, 10, 20, 30, 11, 21, 31)
	})
	t.Run("a drained flow passes the turn to its successor", func(t *testing.T) {
		r := newPortRig(t, 2, pfqBufferPackets)
		inject(r, z, 0)
		inject(r, a, 0)
		inject(r, a, 1)
		inject(r, a, 2)
		inject(r, b, 0) // drains mid-ring
		inject(r, c, 0) // drains at the ring's end
		r.eng.Run(simtime.Millisecond)
		order(r, 90, 10, 20, 30, 11, 12)
	})
	t.Run("a blocked flow is passed over until its kick", func(t *testing.T) {
		// 0 → 1 → 2: port 0→1 reserves node 1's credits. Node 1 already holds
		// all of b's, until they are released at 50 µs.
		r := newPortRig(t, 3, 2)
		fb := wire.MakeFlowID(0, b)
		r.net.charge(1, fb)
		r.net.charge(1, fb)
		inject(r, z, 0)
		inject(r, b, 0)
		inject(r, a, 0)
		inject(r, a, 1)
		const kick = 50 * simtime.Microsecond
		r.eng.Schedule(kick, func() { r.net.release(1, fb, 2) })
		r.eng.Run(simtime.Millisecond)
		order(r, 90, 10, 11, 20)
		if at := r.times[3]; at != kick+2*(rigTx+rigProp) {
			t.Fatalf("b's packet delivered at %v, want two hops after the kick at %v", at, kick)
		}
		for node, cs := range r.net.pfq.credits {
			if len(cs) != 0 {
				t.Errorf("node %d: credit list still holds %v", node, cs)
			}
		}
	})
}
