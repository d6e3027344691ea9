package sim

import (
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
)

func TestArenaAllocFreeRecycles(t *testing.T) {
	var a pktArena
	// Fill two slabs exactly.
	var pkts []*Packet
	for i := 0; i < 2*pktSlabSize; i++ {
		pkts = append(pkts, a.alloc())
	}
	st := a.stats()
	if st.Slabs != 2 || st.Live != 2*pktSlabSize {
		t.Fatalf("after fill: %+v", st)
	}
	// Free everything: at most maxIdleSlabs retained, the rest released.
	for _, p := range pkts {
		a.free(p)
	}
	st = a.stats()
	if st.Live != 0 {
		t.Fatalf("live = %d after freeing all", st.Live)
	}
	if st.IdleSlabs > maxIdleSlabs {
		t.Fatalf("idle slabs = %d > watermark %d", st.IdleSlabs, maxIdleSlabs)
	}
	if st.Slabs != st.IdleSlabs {
		t.Fatalf("slabs = %d with %d idle and 0 live", st.Slabs, st.IdleSlabs)
	}
	// Reallocation reuses the retained idle slab without growing.
	p := a.alloc()
	if a.stats().Slabs != st.Slabs {
		t.Fatalf("realloc grew the arena: %+v", a.stats())
	}
	a.free(p)
}

func TestArenaPartialListIntegrity(t *testing.T) {
	// Interleaved alloc/free across multiple slabs must keep the partial
	// list's swap-remove positions consistent. An LCG picks victims.
	var a pktArena
	live := map[*Packet]bool{}
	var order []*Packet
	rng := uint64(7)
	for step := 0; step < 20000; step++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		if len(order) == 0 || rng%3 != 0 {
			p := a.alloc()
			if live[p] {
				t.Fatalf("step %d: alloc returned a live packet", step)
			}
			live[p] = true
			order = append(order, p)
		} else {
			i := int(rng>>33) % len(order)
			p := order[i]
			order[i] = order[len(order)-1]
			order = order[:len(order)-1]
			delete(live, p)
			a.free(p)
		}
		if a.stats().Live != len(order) {
			t.Fatalf("step %d: live = %d, want %d", step, a.stats().Live, len(order))
		}
	}
	for _, p := range order {
		a.free(p)
	}
	if st := a.stats(); st.Live != 0 || st.IdleSlabs > maxIdleSlabs {
		t.Fatalf("final state: %+v", st)
	}
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
	// Burst: 15-way incast of 1 MB flows into node 0.
	for s := 1; s < 16; s++ {
		r.StartFlow(topology.NodeID(s), 0, 1<<20, 1, 0)
	}
	eng.Run(200 * simtime.Millisecond)
	burst := net.ArenaStats()
	if burst.PeakSlabs < 3 {
		t.Fatalf("burst did not exercise the arena: %+v (scenario too small to regress on)", burst)
	}
	// Trickle: one small flow at a time, long after the burst drained.
	for i := 0; i < 5; i++ {
		r.StartFlow(topology.NodeID(1+i), topology.NodeID(8+i), 64<<10, 1, 0)
		eng.Run(eng.Now() + 50*simtime.Millisecond)
		st := net.ArenaStats()
		// The trickle's working set is a handful of in-flight packets: the
		// arena must have shed the burst's segments, not pinned them.
		if st.Slabs > maxIdleSlabs+2 {
			t.Fatalf("trickle flow %d still holds %d slabs (peak %d, released %d): burst memory pinned",
				i, st.Slabs, st.PeakSlabs, st.ReleasedSlabs)
		}
	}
	final := net.ArenaStats()
	if final.ReleasedSlabs == 0 {
		t.Fatalf("no slabs were released after the burst drained: %+v", final)
	}
	t.Logf("peak=%d slabs, final=%d slabs, released=%d", final.PeakSlabs, final.Slabs, final.ReleasedSlabs)
}

// ArenaStats returns a snapshot of the packet arena's occupancy.
func (n *Network) ArenaStats() ArenaStats { return n.arena.stats() }

// ArenaStats is a snapshot of arena occupancy, exposed for retention tests
// and capacity planning.
type ArenaStats struct {
	Live          int // packets currently allocated
	Slabs         int // live arena segments (full + partial + idle)
	IdleSlabs     int // fully-free segments retained for reuse
	PeakSlabs     int // segment high-water mark
	ReleasedSlabs int // segments returned to the GC after draining
}

func (a *pktArena) stats() ArenaStats {
	return ArenaStats{
		Live:          a.live,
		Slabs:         a.slabs,
		IdleSlabs:     len(a.idle),
		PeakSlabs:     a.peak,
		ReleasedSlabs: a.released,
	}
}
