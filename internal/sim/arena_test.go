package sim

import (
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
)

// checkArenaLists fails unless every slab on the partial list holds at least
// one free and one live slot, every idle slab is wholly free and within the
// watermark, and each slab's recorded position is its index in its list.
func checkArenaLists(t *testing.T, a *pktArena) {
	t.Helper()
	for i, s := range a.partial {
		if s.pos != i || s.nfree <= 0 || s.nfree >= pktSlabSize {
			t.Fatalf("partial[%d]: pos %d, %d free", i, s.pos, s.nfree)
		}
	}
	if len(a.idle) > maxIdleSlabs {
		t.Fatalf("%d idle slabs, watermark %d", len(a.idle), maxIdleSlabs)
	}
	for i, s := range a.idle {
		if s.pos != i || s.nfree != pktSlabSize {
			t.Fatalf("idle[%d]: pos %d, %d free", i, s.pos, s.nfree)
		}
	}
}

func TestArenaAllocFreeRecycles(t *testing.T) {
	var a pktArena
	// Fill two slabs exactly: both full, so on neither list.
	var pkts []*Packet
	slabs := map[*pktSlab]bool{}
	for i := 0; i < 2*pktSlabSize; i++ {
		p := a.alloc()
		pkts = append(pkts, p)
		slabs[p.slab] = true
	}
	if len(slabs) != 2 || len(a.partial) != 0 || len(a.idle) != 0 {
		t.Fatalf("after fill: %d slabs, %d partial, %d idle", len(slabs), len(a.partial), len(a.idle))
	}
	// Free everything: no slab is left partly live, at most maxIdleSlabs
	// are retained and the rest released.
	for _, p := range pkts {
		a.free(p)
	}
	checkArenaLists(t, &a)
	if len(a.partial) != 0 || len(a.idle) == 0 {
		t.Fatalf("after freeing all: %d partial, %d idle", len(a.partial), len(a.idle))
	}
	// Reallocation takes a retained idle slab instead of a new one.
	idle := a.idle[len(a.idle)-1]
	p := a.alloc()
	if p.slab != idle || len(a.partial) != 1 || a.partial[0] != idle {
		t.Fatalf("realloc did not reuse the idle slab: %d partial, %d idle", len(a.partial), len(a.idle))
	}
	a.free(p)
	checkArenaLists(t, &a)
}

func TestArenaPartialListIntegrity(t *testing.T) {
	// Interleaved alloc/free across multiple slabs must keep the partial
	// list's swap-remove positions consistent, and every slab's free count
	// must match the packets the test holds from it. An LCG picks victims.
	var a pktArena
	live := map[*Packet]bool{}
	held := map[*pktSlab]int{} // packets the test holds, per slab
	var order []*Packet
	rng := uint64(7)
	for step := 0; step < 20000; step++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		var p *Packet
		if len(order) == 0 || rng%3 != 0 {
			p = a.alloc()
			if live[p] {
				t.Fatalf("step %d: alloc returned a live packet", step)
			}
			live[p] = true
			held[p.slab]++
			order = append(order, p)
		} else {
			i := int(rng>>33) % len(order)
			p = order[i]
			order[i] = order[len(order)-1]
			order = order[:len(order)-1]
			delete(live, p)
			held[p.slab]--
			a.free(p)
		}
		if s := p.slab; pktSlabSize-s.nfree != held[s] {
			t.Fatalf("step %d: slab has %d slots taken, the test holds %d", step, pktSlabSize-s.nfree, held[s])
		}
		checkArenaLists(t, &a)
	}
	for _, p := range order {
		a.free(p)
	}
	checkArenaLists(t, &a)
	if len(a.partial) != 0 {
		t.Fatalf("%d partial slabs after freeing every packet", len(a.partial))
	}
}

// heldSlabs returns the slabs a Network's arena holds between events: those
// on its partial and idle lists, and the full ones, found through their
// packets, every one of which is queued at a port or in flight to its next
// node as an arrival in the wheel. It fails unless those packets account for
// every taken slot.
func heldSlabs(t *testing.T, n *Network) map[*pktSlab]bool {
	t.Helper()
	held, found := map[*pktSlab]bool{}, 0
	for _, s := range n.arena.partial {
		held[s] = true
	}
	for _, s := range n.arena.idle {
		held[s] = true
	}
	for _, p := range n.ports {
		for pkt := p.fifo.head; pkt != nil; pkt = pkt.next {
			held[pkt.slab] = true
			found++
		}
	}
	for i := range n.Eng.wheel.nodes {
		if nd := &n.Eng.wheel.nodes[i]; nd.level != freeLevel && nd.ev.kind() == evArrive {
			held[nd.ev.recv.(*Packet).slab] = true
			found++
		}
	}
	taken := 0
	for s := range held {
		taken += pktSlabSize - s.nfree
	}
	if taken != found {
		t.Fatalf("arena slabs have %d slots taken, %d packets queued or in flight", taken, found)
	}
	return held
}

// Regression for free-list peak retention: a transient incast burst used
// to pin its peak packet count in the unbounded Network.free list for the
// rest of the run. With the slab arena, once the burst drains, fully-free
// slabs beyond the idle watermark are released, so the trickle phase runs
// with a small bounded segment count.
func TestBurstThenTrickleReleasesArena(t *testing.T) {
	g := torus(t, 4, 4)
	eng := &Engine{}
	// Tiny queues so the burst really queues packets fabric-wide.
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	r := NewR2C2(net, routing.NewTable(g), R2C2Config{
		Headroom:  0.05,
		Protocol:  routing.RPS,
		Recompute: 100 * simtime.Microsecond,
	})
	// Burst: 15-way incast of 1 MB flows into node 0, sampled every 20 µs
	// for its first 20 ms.
	for s := 1; s < 16; s++ {
		r.StartFlow(topology.NodeID(s), 0, 1<<20, 1, 0)
	}
	burst, peak := map[*pktSlab]bool{}, 0
	for at := simtime.Time(0); at < 20*simtime.Millisecond; at += 20 * simtime.Microsecond {
		eng.Run(at)
		held := heldSlabs(t, net)
		for s := range held {
			burst[s] = true
		}
		peak = max(peak, len(held))
	}
	eng.Run(200 * simtime.Millisecond)
	if peak < 3 {
		t.Fatalf("burst held at most %d slabs (scenario too small to regress on)", peak)
	}
	// Trickle: one small flow at a time, long after the burst drained.
	for i := 0; i < 5; i++ {
		r.StartFlow(topology.NodeID(1+i), topology.NodeID(8+i), 64<<10, 1, 0)
		eng.Run(eng.Now() + 50*simtime.Millisecond)
		// The trickle's working set is a handful of in-flight packets: the
		// arena must have shed the burst's segments, not pinned them.
		if held := heldSlabs(t, net); len(held) > maxIdleSlabs+2 {
			t.Fatalf("trickle flow %d still holds %d slabs (burst peak %d): burst memory pinned", i, len(held), peak)
		}
	}
	// A slab leaves the arena only by release to the GC.
	final := heldSlabs(t, net)
	released := 0
	for s := range burst {
		if !final[s] {
			released++
		}
	}
	if released == 0 {
		t.Fatalf("none of the burst's %d slabs was released after it drained", len(burst))
	}
	t.Logf("burst peak=%d slabs (of %d seen), final=%d slabs, %d of the burst's released", peak, len(burst), len(final), released)
}
