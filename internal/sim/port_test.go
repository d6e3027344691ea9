package sim

import (
	"strings"
	"testing"
	"unsafe"

	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
	"r2c2/internal/wire"
)

// portRig is a line of nodes 0 — 1 — … — n-1 under a stub Deliver that logs
// what arrives and when: the fabric alone, so Engine.Processed counts port
// and link events and nothing else.
type portRig struct {
	t     *testing.T
	g     *topology.Graph
	eng   *Engine
	net   *Network
	seqs  []uint32       // delivered packets' Seq, in delivery order
	times []simtime.Time // and their delivery times
}

const (
	rigProp = 100 * simtime.Nanosecond
	rigTx   = 1200 * simtime.Nanosecond // 1500 bytes at 10 Gbps
)

// newPortRig builds the rig: FIFO ports for pfqBuf 0, per-flow queues with
// a buffer of pfqBuf packets per flow per node otherwise.
func newPortRig(t *testing.T, nodes, pfqBuf int) *portRig {
	t.Helper()
	g, err := topology.NewMesh(nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &portRig{t: t, g: g, eng: &Engine{}}
	r.net = NewNetwork(g, r.eng, NetConfig{LinkGbps: 10, PropDelay: rigProp})
	if pfqBuf > 0 {
		r.net.installPFQ(pfqBuf)
	}
	r.net.Deliver = func(_ topology.NodeID, pkt *Packet) {
		r.seqs = append(r.seqs, pkt.Seq)
		r.times = append(r.times, r.eng.Now())
	}
	return r
}

// link returns the directed link a → a+1.
func (r *portRig) link(a int) topology.LinkID {
	lid, ok := r.g.LinkBetween(topology.NodeID(a), topology.NodeID(a+1))
	if !ok {
		r.t.Fatalf("no link %d→%d", a, a+1)
	}
	return lid
}

// inject sends one MTU packet from node 0 to the far end of the line.
func (r *portRig) inject(seq uint32) {
	last := r.g.Nodes() - 1
	pkt := &Packet{Kind: KindData, SizeBytes: MTU, Payload: MaxPayload, Seq: seq,
		Flow: wire.MakeFlowID(0, 0), Src: 0, Dst: topology.NodeID(last)}
	for a := 0; a < last; a++ {
		pkt.Path = append(pkt.Path, r.link(a))
	}
	r.net.Inject(pkt)
}

func (r *portRig) expect(events uint64, seqs []uint32, times []simtime.Time) {
	r.t.Helper()
	if got := r.eng.Processed(); got != events {
		r.t.Errorf("%d engine events, want %d", got, events)
	}
	if len(r.seqs) != len(seqs) {
		r.t.Fatalf("delivered %v at %v, want %v at %v", r.seqs, r.times, seqs, times)
	}
	for i := range seqs {
		if r.seqs[i] != seqs[i] || r.times[i] != times[i] {
			r.t.Fatalf("delivered %v at %v, want %v at %v", r.seqs, r.times, seqs, times)
		}
	}
}

// TestPortStateMachine pins what a packet-hop costs and when packets leave
// a port: one engine event per hop (the arrival), one more per packet that
// had to wait behind another (the port's wake-up), and departure times equal
// to those of a port stepped through an end-of-transmission event per
// packet.
func TestPortStateMachine(t *testing.T) {
	t.Run("lone packet costs one event per hop", func(t *testing.T) {
		for _, hops := range []int{1, 2, 5} {
			r := newPortRig(t, hops+1, 0)
			r.inject(0)
			r.eng.Run(simtime.Millisecond)
			r.expect(uint64(hops), []uint32{0}, []simtime.Time{simtime.Time(hops) * (rigTx + rigProp)})
			if r.net.PktHops != uint64(hops) {
				t.Errorf("%d hops: PktHops = %d", hops, r.net.PktHops)
			}
		}
	})

	t.Run("burst costs one wake per queued packet", func(t *testing.T) {
		const n = 6
		r := newPortRig(t, 2, 0)
		var seqs []uint32
		var times []simtime.Time
		for i := 0; i < n; i++ {
			r.inject(uint32(i))
			seqs = append(seqs, uint32(i))
			times = append(times, simtime.Time(i+1)*rigTx+rigProp) // back to back from t = 0
		}
		r.eng.Run(simtime.Millisecond)
		r.expect(n+(n-1), seqs, times) // n arrivals, a wake-up before each packet but the first
	})

	t.Run("enqueue at freeAt departs at freeAt", func(t *testing.T) {
		r := newPortRig(t, 2, 0)
		r.inject(0)
		r.eng.Schedule(rigTx, func() { r.inject(1) }) // the instant the port falls free
		r.eng.Run(simtime.Millisecond)
		// No packet ever waited, so no wake-up: two arrivals and the closure.
		r.expect(3, []uint32{0, 1}, []simtime.Time{rigTx + rigProp, 2*rigTx + rigProp})
	})

	t.Run("enqueue at freeAt behind a queued packet keeps FIFO", func(t *testing.T) {
		r := newPortRig(t, 2, 0)
		r.inject(0)
		r.inject(1)
		r.eng.Schedule(rigTx, func() { r.inject(2) })
		r.eng.Run(simtime.Millisecond)
		r.expect(3+2+1, []uint32{0, 1, 2}, []simtime.Time{rigTx + rigProp, 2*rigTx + rigProp, 3*rigTx + rigProp})
	})

	t.Run("failure mid-serialisation loses the queue, not the packet on the wire", func(t *testing.T) {
		r := newPortRig(t, 2, 0)
		r.inject(0)
		r.inject(1)
		r.inject(2)
		r.eng.Schedule(rigTx/2, func() {
			r.net.FailLink(r.link(0))
			r.net.RepairLink(r.link(0))
			r.inject(3) // the port is still serialising packet 0: waits for it
		})
		r.eng.Run(simtime.Millisecond)
		if drops := r.net.TotalDrops(); drops != 2 {
			t.Errorf("%d packets lost, want the 2 that were queued", drops)
		}
		// Events: the closure, the wake-up armed behind packet 0, two arrivals.
		r.expect(4, []uint32{0, 3}, []simtime.Time{rigTx + rigProp, 2*rigTx + rigProp})
	})

	t.Run("PFQ credit returns at freeAt, not at transmit start", func(t *testing.T) {
		r := newPortRig(t, 3, pfqBufferPackets)
		flow := wire.MakeFlowID(0, 0)
		r.inject(0)
		r.eng.Run(rigTx - 1) // one picosecond before the serialisation ends
		if at0, at1 := r.net.BufCount(0, flow), r.net.BufCount(1, flow); at0 != 1 || at1 != 1 {
			t.Fatalf("mid-serialisation: node 0 holds %d credits, node 1 %d; want 1 (not yet returned) and 1 (reserved at transmit start)", at0, at1)
		}
		r.eng.Run(rigTx)
		if at0, at1 := r.net.BufCount(0, flow), r.net.BufCount(1, flow); at0 != 0 || at1 != 1 {
			t.Fatalf("at freeAt: node 0 holds %d credits, node 1 %d; want 0 and 1", at0, at1)
		}
		r.eng.Run(simtime.Millisecond)
		// A PFQ port always wakes: two hops, two arrivals, two wake-ups.
		r.expect(4, []uint32{0}, []simtime.Time{2 * (rigTx + rigProp)})
		if left := r.net.BufCount(1, flow); left != 0 {
			t.Fatalf("node 1 still holds %d credits after delivery", left)
		}
	})
}

// TestEventRecordSize keeps the event record within the budget the engine's
// per-event cost was sized for (keys 24 B, node + tie/kind 8 B, receiver
// 16 B), the wheel's arena node within one cache line, and a staging-heap
// entry (keys, tie, arena index) at half of one.
func TestEventRecordSize(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 56 {
		t.Fatalf("event record is %d bytes, budget 56", sz)
	}
	if sz := unsafe.Sizeof(timerNode{}); sz > 64 {
		t.Fatalf("timer-wheel node is %d bytes, more than a cache line", sz)
	}
	if sz := unsafe.Sizeof(stagedEntry{}); sz > 32 {
		t.Fatalf("staging-heap entry is %d bytes, budget 32 (two to a cache line)", sz)
	}
}

// TestPortFitsCacheLine holds an output port to one 64-byte cache line: a
// flood touches a port per hop across the whole fabric (ROADMAP item 4 (c)),
// so the per-flow-queue discipline keeps its per-port state in Network.pfq.
func TestPortFitsCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(port{}); sz > 64 {
		t.Fatalf("port is %d bytes, more than a cache line", sz)
	}
}

// TestRunRejectsFlowSequenceWrap: a source's flows are numbered with 16
// bits, so a workload that starts more than wire.MaxFlowsPerSource flows at
// one node must be refused up front, not run into a wrapped flow ID.
func TestRunRejectsFlowSequenceWrap(t *testing.T) {
	g := torus(t, 2, 1)
	cfg := func(fromNode0 int) RunConfig {
		arr := make([]trafficgen.Arrival, wire.MaxFlowsPerSource+1)
		for i := range arr {
			arr[i] = trafficgen.Arrival{At: simtime.Time(i), Src: 1, Dst: 0, SizeBytes: 1, Weight: 1}
			if i < fromNode0 {
				arr[i].Src, arr[i].Dst = 0, 1
			}
		}
		return RunConfig{Graph: g, Transport: TransportR2C2, Arrivals: arr, MaxTime: 1}
	}
	// One flow over the limit in total, but within it per source.
	Run(cfg(1))

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "flow sequence numbers would wrap") {
			t.Fatalf("Run with %d arrivals from one source: panic %q, want the sequence-wrap rejection", wire.MaxFlowsPerSource+1, msg)
		}
	}()
	Run(cfg(0))
}

// TestDropTailAdmitsExactFit holds a FIFO port's drop-tail rule: a packet
// that brings the queue to exactly QueueBytes is admitted, and one byte more
// is lost and counted in TotalDrops, which Results.Drops sums.
func TestDropTailAdmitsExactFit(t *testing.T) {
	g, err := topology.NewMesh(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 4000
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: rigProp, QueueBytes: limit})
	delivered := 0
	net.Deliver = func(topology.NodeID, *Packet) { delivered++ }
	lid, _ := g.LinkBetween(0, 1)
	send := func(size int) bool {
		return net.Inject(&Packet{Kind: KindData, SizeBytes: size, Payload: size,
			Flow: wire.MakeFlowID(0, 0), Src: 0, Dst: 1, Path: []topology.LinkID{lid}})
	}
	send(MTU) // on the wire at once; what follows queues behind it
	room := limit - net.ports[lid].queued
	if !send(room) {
		t.Fatalf("a %d-byte packet that fills the queue to exactly %d bytes was dropped", room, limit)
	}
	if send(1) {
		t.Fatalf("a packet past the %d-byte queue was admitted", limit)
	}
	if got := net.TotalDrops(); got != 1 {
		t.Fatalf("TotalDrops = %d, want 1", got)
	}
	eng.Run(simtime.Millisecond)
	if delivered != 2 {
		t.Fatalf("%d packets delivered, want 2", delivered)
	}
}
