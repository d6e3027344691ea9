package sim

import (
	"testing"
	"time"

	"r2c2/internal/core"
	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// QueuedBytes returns the current queue occupancy of a port.
func (n *Network) QueuedBytes(lid topology.LinkID) int { return n.ports[lid].queued }

// LinkFailed reports whether a directed link has been failed.
func (n *Network) LinkFailed(lid topology.LinkID) bool { return n.ports[lid].dead }

// linkDown, linkUp and crash are the fault events the tests inject, each
// detected after detect.
func linkDown(a, b topology.NodeID, detect time.Duration) faults.Event {
	return faults.Event{Kind: faults.LinkDown, A: a, B: b, Detect: detect}
}

func linkUp(a, b topology.NodeID, detect time.Duration) faults.Event {
	return faults.Event{Kind: faults.LinkRepair, A: a, B: b, Detect: detect}
}

func crash(v topology.NodeID, detect time.Duration) faults.Event {
	return faults.Event{Kind: faults.NodeDown, Node: v, Detect: detect}
}

// linkMask marks the given links of g failed, for WithoutLinksAndNodes.
func linkMask(g *topology.Graph, failed ...topology.LinkID) []bool {
	m := make([]bool, g.NumLinks())
	for _, lid := range failed {
		m[lid] = true
	}
	return m
}

// Degraded fabrics must still produce valid φ-vectors and paths for every
// protocol (DOR and WLB fall back to DAG-based routing).
func TestRoutingOnDegradedFabric(t *testing.T) {
	g := torus(t, 4, 2)
	ab, _ := g.LinkBetween(0, 1)
	ba, _ := g.LinkBetween(1, 0)
	sub, _, err := g.WithoutLinksAndNodes(linkMask(g, ab, ba), nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.NewTable(sub)
	for _, p := range []routing.Protocol{routing.RPS, routing.DOR, routing.VLB, routing.WLB} {
		phi := tab.Phi(p, 0, 1)
		for _, lid := range phi.Links {
			l := sub.Link(lid)
			if l.From == 0 && l.To == 1 {
				t.Fatalf("%v routes over the failed link", p)
			}
		}
	}
}

// End-to-end failure story: a reliable flow crossing a link that dies
// mid-transfer must still complete after detection and rerouting.
func TestR2C2SurvivesLinkFailure(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	tab := routing.NewTable(g)
	r := NewR2C2(net, tab, R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS,
		Recompute: 100 * simtime.Microsecond,
		Reliable:  true, RTO: 300 * simtime.Microsecond,
	})
	// A neighbour flow 0->1: RPS uses exactly the direct link, which dies.
	id := r.StartFlow(0, 1, 8<<20, 1, 0)
	eng.Run(simtime.Millisecond) // mid-transfer
	if err := r.InjectFault(linkDown(0, 1, 200*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	eng.Run(simtime.Second)
	rec := r.Ledger()[id]
	if !rec.Done {
		t.Fatalf("flow did not survive the failure: %d/%d bytes (drops=%d retx=%d reroutes=%d)",
			rec.BytesRcvd, rec.SizeBytes, net.TotalDrops(), r.Retransmissions, r.FailureReroutes)
	}
	if r.FailureReroutes != 1 {
		t.Fatalf("reroutes = %d", r.FailureReroutes)
	}
	ab, _ := g.LinkBetween(0, 1)
	if !net.LinkFailed(ab) {
		t.Fatal("failed link not reported as failed")
	}
	if net.QueuedBytes(ab) != 0 {
		t.Fatal("dead port still holds queued bytes")
	}
	if net.TotalDrops() == 0 {
		t.Fatal("failure killed no packets — the flow never used the link?")
	}
	if r.Retransmissions == 0 {
		t.Fatal("lost packets were never retransmitted")
	}
}

// After rerouting, broadcasts still reach everyone: a new flow started
// post-failure must appear in every view.
func TestBroadcastAfterFailure(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
	r := NewR2C2(net, routing.NewTable(g), R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS, Recompute: 100 * simtime.Microsecond})
	if err := r.InjectFault(linkDown(0, 1, 50*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	eng.Run(simtime.Millisecond) // detection done
	id := r.StartFlow(0, 15, 64<<20, 1, 0)
	eng.Run(2 * simtime.Millisecond)
	for n := 0; n < g.Nodes(); n++ {
		if _, ok := r.View(topology.NodeID(n)).Get(id); !ok {
			t.Fatalf("node %d missing post-failure flow", n)
		}
	}
	if err := r.InjectFault(linkDown(0, 1, time.Microsecond)); err == nil {
		t.Fatal("re-failing the same link should error (no link left)")
	}
}

// Failing a link under PFQ drains its per-flow queues and releases the
// buffer credits so upstream senders do not deadlock.
func TestFailLinkPFQDrains(t *testing.T) {
	t.Run("sprayed flow keeps its credits exact", func(t *testing.T) {
		g := torus(t, 4, 2)
		eng := &Engine{}
		net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
		tab := routing.NewTable(g)
		pfq := NewPFQ(net, tab, 3)
		id := pfq.StartFlow(0, 2, 1<<20)  // DOR-free: RPS spray over the quadrant
		eng.Run(10 * simtime.Microsecond) // queues primed
		// Kill one of the first-hop links the flow is using.
		var victim topology.LinkID
		found := false
		for _, lid := range g.Out(0) {
			if net.QueuedBytes(lid) > 0 {
				victim, found = lid, true
				break
			}
		}
		if !found {
			t.Skip("no queued first-hop packets at probe time")
		}
		net.FailLink(victim)
		if net.QueuedBytes(victim) != 0 {
			t.Fatal("PFQ drain left bytes behind")
		}
		if !net.LinkFailed(victim) {
			t.Fatal("link not marked failed")
		}
		// The source's credits are the packets it still holds, before and
		// after the sprayed packets that draw the dead link are dropped there.
		if c, h := net.BufCount(0, id), pfqHeld(net, 0, id); c != h {
			t.Fatalf("after the failure the source is charged %d credits for the %d packets it holds", c, h)
		}
		// The flow loses packets (no retransmit in raw PFQ) but the fabric
		// must not deadlock: remaining packets keep flowing on other paths.
		before := pfq.Ledger()[id].BytesRcvd
		eng.Run(10 * simtime.Millisecond)
		if after := pfq.Ledger()[id].BytesRcvd; after <= before {
			t.Fatalf("no forward progress after PFQ link failure: %d -> %d", before, after)
		}
		if c, h := net.BufCount(0, id), pfqHeld(net, 0, id); c != h {
			t.Fatalf("the source is charged %d credits for the %d packets it holds", c, h)
		}
		if !pfq.Ledger()[id].SenderDone {
			t.Fatal("the source stalled: credits taken by packets dropped at the dead port never came back")
		}
	})

	// Line 0 — 1 — 2 — 3. Flow f (0 → 3) shares port 2→3 with flow g (2 → 3),
	// so round robin halves f's rate there and f backs up through nodes 2 and
	// 1 until port 0→1 idles, blocked on node 1's credits. Failing 1→2 while
	// it too idles must hand node 1's credits back and restart 0→1: no other
	// packet reaches node 1 to do it (g's traffic only kicks node 2's upstream).
	t.Run("blocked upstream port resumes", func(t *testing.T) {
		g, err := topology.NewMesh(4, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng := &Engine{}
		net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
		pfq := newPFQ(net, routing.NewTable(g), 3, 2)
		f := pfq.StartFlow(0, 3, 1<<20)
		pfq.StartFlow(2, 3, 1<<20)
		l01, _ := g.LinkBetween(0, 1)
		l12, _ := g.LinkBetween(1, 2)
		p01, p12 := net.ports[l01], net.ports[l12]
		blocked := func() bool {
			now := eng.Now()
			return p12.idle(now) && p12.queued > 0 && p01.idle(now) && p01.queued > 0 &&
				!net.hasRoom(1, f)
		}
		for !blocked() {
			at, ok := eng.NextEventAt()
			if !ok || at > simtime.Millisecond {
				t.Fatal("flow f never backed up to an idle, blocked port 0→1")
			}
			eng.Run(at)
		}
		net.FailLink(l12)
		eng.Run(simtime.Second)
		// The source holds two packets at a time, so it injects all of f
		// only if port 0→1 drains it.
		if !pfq.Ledger()[f].SenderDone || p01.queued != 0 {
			t.Fatalf("port 0→1 stayed blocked after node 1's buffers were released (%d bytes queued)", p01.queued)
		}
		for node := topology.NodeID(0); node < 3; node++ {
			if c := net.BufCount(node, f); c != 0 {
				t.Errorf("node %d still charged %d credits for f once the fabric is quiet", node, c)
			}
		}
	})
}

// pfqHeld counts the packets of a flow a PFQ node holds: queued at its output
// ports, or on the wire from one of them until the serialisation ends — the
// packets whose credits the node has not yet returned, when none of the
// flow's packets is on its way to the node.
func pfqHeld(net *Network, node topology.NodeID, flow wire.FlowID) int {
	held := 0
	for _, lid := range net.G.Out(node) {
		pp := &net.pfq.ports[lid]
		for _, ri := range pp.rr {
			if net.pfq.flows[ri].id == flow {
				for pkt := net.pfq.flows[ri].q.head; pkt != nil; pkt = pkt.next {
					held++
				}
			}
		}
		if pp.txFlow == flow && net.Eng.Now() < net.ports[lid].freeAt {
			held++
		}
	}
	return held
}

// Node failure (§3.2): the dead node's flows are purged from every
// surviving view (their bandwidth is returned), survivors' flows reroute
// and complete, and flows to/from the dead node are abandoned.
func TestR2C2SurvivesNodeFailure(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	r := NewR2C2(net, routing.NewTable(g), R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS,
		Recompute: 100 * simtime.Microsecond,
		Reliable:  true, RTO: 300 * simtime.Microsecond,
	})
	fromDead := r.StartFlow(5, 10, 32<<20, 1, 0) // sourced at the node that dies
	toDead := r.StartFlow(0, 5, 32<<20, 1, 0)    // destined to it
	survivor := r.StartFlow(1, 11, 8<<20, 1, 0)  // unrelated

	eng.Run(simtime.Millisecond) // everyone sees all three flows
	if err := r.InjectFault(crash(5, 200*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	eng.Run(simtime.Second)

	if !r.Ledger()[survivor].Done {
		t.Fatalf("survivor flow incomplete: %d/%d",
			r.Ledger()[survivor].BytesRcvd, r.Ledger()[survivor].SizeBytes)
	}
	if r.Ledger()[fromDead].Done || r.Ledger()[toDead].Done {
		t.Fatal("flows involving the dead node cannot complete")
	}
	// Every surviving view is clean: no trace of the dead node's flows.
	for n := 0; n < g.Nodes(); n++ {
		if n == 5 {
			continue
		}
		view := r.View(topology.NodeID(n))
		if _, ok := view.Get(fromDead); ok {
			t.Fatalf("node %d still sees the dead node's flow", n)
		}
		if _, ok := view.Get(toDead); ok {
			t.Fatalf("node %d still sees a flow to the dead node", n)
		}
	}
	// Partitioning node failures are rejected: on a 3-ring, killing node 1
	// leaves 0 and 2 connected... kill two nodes to partition.
	ring, err := topology.NewTorus(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ring.WithoutLinksAndNodes(nil, []bool{false, true, false}); err != nil {
		t.Fatalf("3-ring minus one node should stay connected: %v", err)
	}
}

// assertLinkGone fails the test if the transport's current routing table
// still contains the physical cable a-b (in either direction).
func assertLinkGone(t *testing.T, r *R2C2, a, b topology.NodeID) {
	t.Helper()
	sub := r.Tab.Graph()
	if _, ok := sub.LinkBetween(a, b); ok {
		t.Fatalf("routing table resurrects failed link %d->%d", a, b)
	}
	if _, ok := sub.LinkBetween(b, a); ok {
		t.Fatalf("routing table resurrects failed link %d->%d", b, a)
	}
}

// Headline regression (overlapping failures with interleaved detection
// windows): link A fails at t with a LONG detection delay, link B fails at
// t+10µs with a SHORT one. B's detection fires first and must install a
// fabric missing BOTH links; A's later-firing detection must not reinstall
// a snapshot taken before B failed — that would resurrect B in the routing
// table and send traffic onto a dead port forever.
func TestOverlappingLinkFailures(t *testing.T) {
	g := torus(t, 4, 2)
	if _, ok := g.LinkBetween(2, 3); !ok {
		t.Fatal("test assumes a 2-3 cable on the 4x2 torus")
	}
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	r := NewR2C2(net, routing.NewTable(g), R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS,
		Recompute: 100 * simtime.Microsecond,
		Reliable:  true, RTO: 300 * simtime.Microsecond,
	})
	// A neighbour flow straddling link B: if B is resurrected, RPS routes
	// its packets onto the dead port and the flow starves.
	id := r.StartFlow(2, 3, 8<<20, 1, 0)
	eng.Run(simtime.Millisecond)
	if err := r.InjectFault(linkDown(0, 1, 100*time.Microsecond)); err != nil { // link A, slow detection
		t.Fatal(err)
	}
	eng.Schedule(eng.Now()+10*simtime.Microsecond, func() {
		if err := r.InjectFault(linkDown(2, 3, 20*time.Microsecond)); err != nil { // link B, fast detection
			t.Error(err)
		}
	})
	eng.Run(simtime.Second) // both detection windows long past
	assertLinkGone(t, r, 0, 1)
	assertLinkGone(t, r, 2, 3)
	// B's fire at t+30µs already covered A's injection, so A's fire at
	// t+100µs must be a no-op: exactly one fabric rebuild.
	if r.FailureReroutes != 1 {
		t.Fatalf("reroutes = %d, want 1 (stale callback rebuilt the fabric)", r.FailureReroutes)
	}
	if rec := r.Ledger()[id]; !rec.Done {
		t.Fatalf("flow across the resurrected link starved: %d/%d bytes", rec.BytesRcvd, rec.SizeBytes)
	}
}

// Regression: a node crash AFTER an earlier link failure must fold the
// accumulated failed links into the degraded fabric — the dead node's
// links alone would reroute traffic onto the previously failed link.
func TestLinkThenNodeFailure(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	r := NewR2C2(net, routing.NewTable(g), R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS,
		Recompute: 100 * simtime.Microsecond,
		Reliable:  true, RTO: 300 * simtime.Microsecond,
	})
	id := r.StartFlow(0, 1, 8<<20, 1, 0) // straddles the link that dies
	eng.Run(simtime.Millisecond)
	if err := r.InjectFault(linkDown(0, 1, 50*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	eng.Run(2 * simtime.Millisecond) // first reroute done
	assertLinkGone(t, r, 0, 1)
	if err := r.InjectFault(crash(5, 50*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	eng.Run(simtime.Second)
	if r.FailureReroutes != 2 {
		t.Fatalf("reroutes = %d, want 2", r.FailureReroutes)
	}
	// The node-crash reroute must still exclude the earlier link failure.
	assertLinkGone(t, r, 0, 1)
	for _, lid := range g.Out(5) {
		l := g.Link(lid)
		assertLinkGone(t, r, l.From, l.To)
	}
	if rec := r.Ledger()[id]; !rec.Done {
		t.Fatalf("flow rerouted onto the dead link: %d/%d bytes", rec.BytesRcvd, rec.SizeBytes)
	}
}

// A link repair (§3.2's recovery half): after the repair's detection window
// the fabric re-expands, the generation bumps, and traffic uses the cable
// again.
func TestRepairLinkReexpandsFabric(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	r := NewR2C2(net, routing.NewTable(g), R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS,
		Recompute: 100 * simtime.Microsecond,
		Reliable:  true, RTO: 300 * simtime.Microsecond,
	})
	if err := r.InjectFault(linkUp(0, 1, time.Microsecond)); err == nil {
		t.Fatal("repairing a healthy link should error")
	}
	if err := r.InjectFault(linkDown(0, 1, 50*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	eng.Run(simtime.Millisecond)
	assertLinkGone(t, r, 0, 1)
	if err := r.InjectFault(linkUp(0, 1, 50*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	eng.Run(2 * simtime.Millisecond)
	if r.FailureReroutes != 2 {
		t.Fatalf("reroutes = %d, want 2 (repair must rebuild the fabric)", r.FailureReroutes)
	}
	if _, ok := r.Tab.Graph().LinkBetween(0, 1); !ok {
		t.Fatal("repaired link missing from the re-expanded routing table")
	}
	if r.LinkMap != nil {
		t.Fatal("fully repaired fabric should drop the link-ID translation")
	}
	ab, _ := g.LinkBetween(0, 1)
	if net.LinkFailed(ab) {
		t.Fatal("repaired port still dead")
	}
	// A neighbour flow 0->1 on the repaired fabric transits the cable: its
	// only one-hop route.
	id := r.StartFlow(0, 1, 4<<20, 1, 0)
	direct, deliver := 0, net.Deliver
	net.Deliver = func(at topology.NodeID, pkt *Packet) {
		if pkt.Kind == KindData && pkt.Flow == id && len(pkt.Path) == 1 && pkt.Path[0] == ab {
			direct++
		}
		deliver(at, pkt)
	}
	eng.Run(eng.Now() + simtime.Second)
	if rec := r.Ledger()[id]; !rec.Done {
		t.Fatalf("post-repair flow incomplete: %d/%d", rec.BytesRcvd, rec.SizeBytes)
	}
	if direct == 0 {
		t.Fatal("repaired cable carried no traffic")
	}
	// A crashed node's cables cannot be repaired while it is down.
	if err := r.InjectFault(crash(10, 50*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if err := r.InjectFault(linkUp(10, 11, time.Microsecond)); err == nil {
		t.Fatal("repairing a dead node's cable should error")
	}
}

// Once a fault has degraded the fabric, every broadcast hop list is translated
// from the degraded graph's link IDs to physical ports, for the rest of the
// run. That translation used to allocate a slice per delivery; it must cost
// nothing once the trees are built and the buffers sized.
func TestDegradedFloodDoesNotAllocate(t *testing.T) {
	g := torus(t, 4, 3)
	// ρ far beyond the test: recomputation ticks stay out of the measurement.
	eng, net, r := newR2C2Net(t, g, R2C2Config{Protocol: routing.RPS, Recompute: simtime.Second})
	if err := r.InjectFault(linkDown(0, 1, 10*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	eng.Run(20 * simtime.Microsecond)
	if r.LinkMap == nil {
		t.Fatal("fabric not degraded after the detection delay")
	}
	// Node 0 is a neighbour of the dead link.
	checkFloodAllocFree(t, eng, net, r)
}

// On the intact fabric a node's tree hops are appended into the transport's
// hop buffer, the same buffer the degraded fabric translates in: flooding
// allocates nothing once the trees are built and the buffers sized.
func TestIntactFloodDoesNotAllocate(t *testing.T) {
	g := torus(t, 4, 3)
	eng, net, r := newR2C2Net(t, g, R2C2Config{Protocol: routing.RPS, Recompute: simtime.Second})
	if r.LinkMap != nil {
		t.Fatal("intact fabric carries a link translation")
	}
	checkFloodAllocFree(t, eng, net, r)
}

// checkFloodAllocFree floods one start broadcast per tree of node 0, round
// after round, and fails if a round reaches fewer than every other node or
// allocates. Re-flooding a start is idempotent in every view.
func checkFloodAllocFree(t *testing.T, eng *Engine, net *Network, r *R2C2) {
	t.Helper()
	g := net.G
	info := core.FlowInfo{ID: wire.MakeFlowID(0, 0), Src: 0, Dst: 9, Weight: 1,
		DemandKbps: core.UnlimitedDemand, Protocol: routing.RPS}
	var bcasts []*wire.Broadcast
	for tree := 0; tree < treesPerSource; tree++ {
		bcasts = append(bcasts, info.StartBroadcast(uint8(tree)))
	}
	flood := func() {
		for _, b := range bcasts {
			r.broadcast(r.nodes[0], b, 0)
			eng.Run(eng.Now() + 100*simtime.Microsecond)
		}
	}
	// The round that counts the deliveries is all the warm-up there is to do: it
	// builds node 0's trees and sizes the arenas and the hop buffer, and a port
	// sizes its queue on its first packet. Nothing grows with the number of
	// packets a port has carried: a drained queue starts over at the front of
	// its array, and an idle port's packet bypasses the queue.
	before := net.BcastBytesOnWire
	flood()
	deliveries := (net.BcastBytesOnWire - before) / BroadcastBytes
	if want := uint64(len(bcasts) * (g.Nodes() - 1)); deliveries != want {
		t.Fatalf("a round of floods made %d deliveries, want %d", deliveries, want)
	}
	// (The debug build's assertions box their arguments on every packet touch.)
	if allocs := testing.AllocsPerRun(10, flood); allocs != 0 && !invariantsEnabled {
		t.Fatalf("%v allocations per round of %d deliveries, want 0", allocs, deliveries)
	}
	if got := r.View(63).Len(); got != 1 {
		t.Fatalf("far node's view holds %d flows after the floods, want 1", got)
	}
}
