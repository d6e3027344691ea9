package sim

import (
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

func newReliableNet(t *testing.T, g *topology.Graph, net NetConfig) (*Engine, *Network, *R2C2) {
	t.Helper()
	eng := &Engine{}
	n := NewNetwork(g, eng, net)
	tab := routing.NewTable(g)
	r := NewR2C2(n, tab, R2C2Config{
		Headroom:  0.05,
		Protocol:  routing.RPS,
		Recompute: 100 * simtime.Microsecond,
		Reliable:  true,
		RTO:       200 * simtime.Microsecond,
	})
	return eng, n, r
}

// With no loss, reliable mode must behave like the base stack plus acks:
// everything completes, nothing retransmits.
func TestReliableLosslessNoRetransmit(t *testing.T) {
	g := torus(t, 4, 2)
	eng, net, r := newReliableNet(t, g, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	ids := []wire.FlowID{
		r.StartFlow(0, 5, 2<<20, 1, 0),
		r.StartFlow(3, 12, 1<<20, 1, 0),
	}
	eng.Run(100 * simtime.Millisecond)
	for _, id := range ids {
		rec := r.Ledger()[id]
		if !rec.Done || !rec.SenderDone {
			t.Fatalf("flow %v incomplete: done=%v senderDone=%v", id, rec.Done, rec.SenderDone)
		}
	}
	if r.Retransmissions != 0 {
		t.Fatalf("lossless run retransmitted %d chunks", r.Retransmissions)
	}
	if net.TotalDrops() != 0 {
		t.Fatalf("drops = %d", net.TotalDrops())
	}
	// Views fully drained after finishes.
	for n := 0; n < g.Nodes(); n++ {
		if r.View(topology.NodeID(n)).Len() != 0 {
			t.Fatalf("node %d view not drained", n)
		}
	}
}

// Under forced loss (tiny queues + incast), reliable flows must still
// deliver every byte; the unreliable stack provably cannot.
func TestReliableRecoversFromDrops(t *testing.T) {
	g := torus(t, 4, 2)
	// Queues of ~4 packets with an 8-way incast force drops.
	eng, net, r := newReliableNet(t, g, NetConfig{LinkGbps: 10, QueueBytes: 6 * 1500})
	var ids []wire.FlowID
	for s := 1; s <= 8; s++ {
		ids = append(ids, r.StartFlow(topology.NodeID(s), 0, 1<<20, 1, 0))
	}
	eng.Run(2 * simtime.Second)
	if net.TotalDrops() == 0 {
		t.Fatal("expected drops under incast with tiny queues")
	}
	if r.Retransmissions == 0 {
		t.Fatal("drops occurred but nothing was retransmitted")
	}
	for _, id := range ids {
		rec := r.Ledger()[id]
		if !rec.Done {
			t.Fatalf("flow %v incomplete despite reliability: %d/%d",
				id, rec.BytesRcvd, rec.SizeBytes)
		}
		if rec.BytesRcvd != rec.SizeBytes {
			t.Fatalf("flow %v byte accounting off: %d != %d (duplicate counting?)",
				id, rec.BytesRcvd, rec.SizeBytes)
		}
	}
}

// Receiver state must survive until the finish broadcast so a lost final
// ack is re-ackable, then be reclaimed.
func TestReliableReceiverCleanup(t *testing.T) {
	g := torus(t, 4, 2)
	eng, _, r := newReliableNet(t, g, NetConfig{LinkGbps: 10})
	id := r.StartFlow(0, 5, 1<<20, 1, 0)
	eng.Run(simtime.Second)
	if !r.Ledger()[id].Done {
		t.Fatal("flow incomplete")
	}
	if r.flows.get(id).st.recv != nil {
		t.Fatal("receiver retains the flow's state after the finish broadcast")
	}
}

// After a reroute bumps the fabric generation, the interned reliability ack
// route must be rebuilt into a fresh buffer: acks already in flight share
// the old backing array by reference, and an in-place rebuild would rewrite
// their remaining hops to new-fabric link IDs mid-flight.
func TestReliableAckRebuildPreservesInFlightRoute(t *testing.T) {
	g := torus(t, 4, 2)
	_, net, r := newReliableNet(t, g, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	id := r.StartFlow(0, 3, 1<<20, 1, 0)

	deliver := func(seq uint32) {
		pkt := net.newPacket()
		pkt.Kind = KindData
		pkt.SizeBytes = MaxPayload + DataHeaderBytes
		pkt.Flow = id
		pkt.Src = 0
		pkt.Dst = 3
		pkt.Seq = seq
		pkt.Payload = MaxPayload
		r.receiveData(3, pkt)
		net.freePacket(pkt)
	}
	deliver(0) // interns the ack route on the receive state
	rs := r.flows.get(id).st.recv
	inFlight := rs.ackPath // what an in-flight ack references
	snapshot := append([]topology.LinkID(nil), inFlight...)

	r.gen++ // as reroute() does after a fabric failure
	deliver(1)
	if &rs.ackPath[0] == &inFlight[0] {
		t.Fatal("ack route rebuilt in place: in-flight acks see the new fabric's links")
	}
	for i, lid := range inFlight {
		if lid != snapshot[i] {
			t.Fatalf("in-flight ack route mutated at hop %d: %v, want %v", i, lid, snapshot[i])
		}
	}
}
