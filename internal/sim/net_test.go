package sim

import (
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

func torus(t testing.TB, k, dims int) *topology.Graph {
	t.Helper()
	g, err := topology.NewTorus(k, dims)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// dataPacket builds a minimal data packet along the DOR path.
func dataPacket(t testing.TB, tab *routing.Table, src, dst topology.NodeID, payload int) *Packet {
	t.Helper()
	path := tab.Phi(routing.DOR, src, dst).Links
	return &Packet{
		Kind:      KindData,
		SizeBytes: payload + DataHeaderBytes,
		Flow:      wire.MakeFlowID(uint16(src), 0),
		Src:       src,
		Dst:       dst,
		Payload:   payload,
		Path:      append([]topology.LinkID(nil), path...),
	}
}

// Conservation: injected = delivered + dropped (no in-flight at drain).
func TestPacketConservation(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, QueueBytes: 4 * 1500})
	tab := routing.NewTable(g)
	delivered := 0
	net.Deliver = func(at topology.NodeID, pkt *Packet) { delivered++ }
	injected := 0
	// Flood one destination from everywhere to force drops.
	for round := 0; round < 30; round++ {
		for s := 1; s < g.Nodes(); s++ {
			pkt := dataPacket(t, tab, topology.NodeID(s), 0, 1400)
			injected++
			net.Inject(pkt)
		}
	}
	eng.Run(simtime.Second)
	// TotalDrops includes packets rejected at inject time.
	if delivered+int(net.TotalDrops()) != injected {
		t.Fatalf("conservation violated: injected=%d delivered=%d drops=%d",
			injected, delivered, net.TotalDrops())
	}
	if net.TotalDrops() == 0 {
		t.Fatal("expected drops under incast flood with tiny queues")
	}
}

func TestQueueStatsTracked(t *testing.T) {
	g := torus(t, 4, 1)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
	tab := routing.NewTable(g)
	delivered := 0
	net.Deliver = func(_ topology.NodeID, pkt *Packet) { delivered += pkt.SizeBytes }
	firstLink := tab.Phi(routing.DOR, 0, 1).Links[0]
	for i := 0; i < 10; i++ {
		net.Inject(dataPacket(t, tab, 0, 1, 1464))
	}
	eng.Run(simtime.Second)
	if net.PktHops != 10 || delivered != 10*1500 {
		t.Fatalf("%d hops delivered %d bytes, want 10 and %d", net.PktHops, delivered, 10*1500)
	}
	// 10 packets arrive instantaneously; at least 9 queue behind the first.
	maxq := net.MaxQueueSample()
	if len(maxq) != g.NumLinks() {
		t.Fatal("MaxQueueSample size wrong")
	}
	if maxq[firstLink] < 9*1500 {
		t.Fatalf("max queue = %v", maxq[firstLink])
	}
}

func TestInjectValidation(t *testing.T) {
	g := torus(t, 4, 1)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{})
	tab := routing.NewTable(g)
	assertPanics(t, "broadcast via Inject", func() {
		net.Inject(&Packet{Kind: KindBroadcast})
	})
	assertPanics(t, "empty path", func() {
		net.Inject(&Packet{Kind: KindData})
	})
	assertPanics(t, "path not at source", func() {
		pkt := dataPacket(t, tab, 1, 2, 10)
		pkt.Src = 3
		net.Inject(pkt)
	})
}

// A recycled packet's sampling scratch must survive carrying an interned
// (shared) route: runs mixing sampled and interned traffic — reliable R2C2
// with RPS data and DOR acks — would otherwise bleed pooled capacity.
func TestPoolScratchSurvivesInternedRoutes(t *testing.T) {
	g := torus(t, 4, 1)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{})
	tab := routing.NewTable(g)

	// A sampling pass grows the packet's scratch buffer.
	p := net.newPacket()
	p.scratch = append(p.scratch[:0], tab.Phi(routing.DOR, 0, 2).Links...)
	p.Path = p.scratch
	cap0 := cap(p.scratch)
	if cap0 == 0 {
		t.Fatal("sampling left no scratch capacity")
	}
	net.freePacket(p)

	// The recycled packet carries an interned route instead...
	p = net.newPacket()
	if cap(p.scratch) != cap0 {
		t.Fatalf("recycled packet lost scratch: cap %d, want %d", cap(p.scratch), cap0)
	}
	p.Path = tab.Phi(routing.DOR, 0, 2).Links
	net.freePacket(p)

	// ...and the scratch must still be there for the next sampling pass,
	// with the shared route detached, not recycled.
	p = net.newPacket()
	if cap(p.scratch) != cap0 {
		t.Fatalf("interned route discarded the scratch buffer: cap %d, want %d", cap(p.scratch), cap0)
	}
	if p.Path != nil {
		t.Fatal("recycled packet still references a shared route")
	}
	net.freePacket(p)
}

// Wiring a second transport of the same kind onto an engine must panic, as
// NewNetwork does: pending typed events would silently be redirected to the
// new instance.
func TestSecondTransportOnEnginePanics(t *testing.T) {
	g := torus(t, 4, 1)
	tab := routing.NewTable(g)

	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{})
	NewR2C2(net, tab, R2C2Config{})
	assertPanics(t, "second R2C2 on one engine", func() {
		NewR2C2(net, tab, R2C2Config{})
	})

	eng2 := &Engine{}
	net2 := NewNetwork(g, eng2, NetConfig{})
	NewTCP(net2, tab, TCPConfig{})
	assertPanics(t, "second TCP on one engine", func() {
		NewTCP(net2, tab, TCPConfig{})
	})
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

func TestBroadcastReachesAllNodes(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
	fib := topology.NewBroadcastFIB(g, 2, 1)
	got := make(map[topology.NodeID]int)
	net.Deliver = func(at topology.NodeID, pkt *Packet) { got[at]++ }
	net.NextBroadcastHops = func(at topology.NodeID, pkt *Packet) []topology.LinkID {
		hops, ok := fib.NextHops(pkt.Src, pkt.Bcast.Tree, at)
		if !ok {
			t.Fatal("FIB miss")
		}
		return hops
	}
	b := &wire.Broadcast{Event: wire.EventFlowStart, Src: 5, Tree: 1}
	net.InjectBroadcast(5, &Packet{Kind: KindBroadcast, SizeBytes: BroadcastBytes, Src: 5, Bcast: b})
	eng.Run(simtime.Second)
	if len(got) != g.Nodes() {
		t.Fatalf("broadcast reached %d nodes, want %d", len(got), g.Nodes())
	}
	for node, count := range got {
		if count != 1 {
			t.Fatalf("node %d received %d copies", node, count)
		}
	}
	// §3.2 accounting: n-1 link traversals × 16 bytes.
	if want := uint64((g.Nodes() - 1) * 16); net.BcastBytesOnWire != want {
		t.Fatalf("broadcast bytes = %d, want %d", net.BcastBytesOnWire, want)
	}
}

// TestTransmitTable holds the Network's serialisation table to
// simtime.TransmitTime bit for bit at every size from 0 to MTU, at each link
// speed the experiments use, and the computed fallback above MTU.
func TestTransmitTable(t *testing.T) {
	g := torus(t, 2, 2)
	for _, gbps := range []float64{10, 25, 40, 100} {
		n := NewNetwork(g, &Engine{}, NetConfig{LinkGbps: gbps})
		if len(n.txTime) != MTU+1 {
			t.Fatalf("%v Gbps: table holds %d sizes, want 0..MTU", gbps, len(n.txTime))
		}
		for size := 0; size <= MTU; size++ {
			if got, want := n.serialisation(size), simtime.TransmitTime(size, gbps); got != want {
				t.Fatalf("%v Gbps, %d bytes: table %d ps, TransmitTime %d ps", gbps, size, got, want)
			}
		}
		for _, size := range []int{-1, MTU + 1, 9000, 1 << 20} {
			if got, want := n.serialisation(size), simtime.TransmitTime(size, gbps); got != want {
				t.Fatalf("%v Gbps, %d bytes: fallback %d ps, TransmitTime %d ps", gbps, size, got, want)
			}
		}
	}
}
