package sim

import (
	"testing"

	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// TestEmissionStampComparator pins the engine's equal-timestamp order,
// (at, emission time, tie, seq): a cross-shard handoff filed with an older
// emission stamp fires before a local event that was scheduled earlier by
// sequence number but emitted later by simulated time; events that also
// agree on the stamp fire untied ones first, then by the link that emitted
// them, and only then by sequence number.
func TestEmissionStampComparator(t *testing.T) {
	eng := &Engine{}
	var order []int
	record := func(id int) func() { return func() { order = append(order, id) } }
	const T = simtime.Time(100)
	// Local event scheduled while the clock sits at 50: emit 50.
	eng.Run(50)
	eng.Schedule(T, record(1))
	// A handoff emitted at 10 in another shard: despite its larger
	// sequence number it precedes the local event at the tie.
	eng.arm(T, 10, uint32(evFunc), 0, record(2))
	// Events emitted at exactly 50 tie with the local event on emission
	// time: link-keyed ones follow it in link order whatever their sequence
	// numbers, an untied one falls back to sequence order behind it.
	eng.arm(T, 50, tieKey(7, evFunc), 0, record(5))
	eng.arm(T, 50, tieKey(3, evFunc), 0, record(4))
	eng.arm(T, 50, uint32(evFunc), 0, record(3))
	eng.Run(T)
	want := []int{2, 1, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("%d events fired, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestCrossShardEmissionTieBreak manufactures an exact-picosecond cross-
// shard arrival tie and requires the boundary drain to resolve it by global
// emission order — the serial engine's tie-break — rather than by source-
// shard index. Before the emission stamp was carried through the boundary
// queues, the drain sorted by fire time alone and fell back to
// (source shard, emission index): shard 1's later-emitted packet would beat
// shard 2's earlier one, and both would lose to the locally scheduled event
// regardless of when it was emitted. This test fails on that policy.
//
// The second half ties three arrivals at one node on (at, emit) as well — two
// handed over by different shards, one local. Emission order cannot separate
// them and ingest order must not (the handoffs' sequence numbers are assigned
// at the barrier, after the local arrival's): they fire in the order of the
// links they came over, as they would in a serial run.
func TestCrossShardEmissionTieBreak(t *testing.T) {
	g := multiRack(t, 3)
	part, err := topology.NewPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	assign := part.ShardAssignment()
	S := part.Shards()
	sr := &shardedRun{inbox: make([][]*boundaryQueue, S)}
	for s := 0; s < S; s++ {
		ctx := &shardCtx{self: int32(s), shardOf: assign, out: make([]*boundaryQueue, S)}
		for d := 0; d < S; d++ {
			if d != s {
				ctx.out[d] = &boundaryQueue{}
			}
		}
		eng := &Engine{}
		net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
		net.sh = ctx
		sr.shards = append(sr.shards, &shardState{ctx: ctx, eng: eng, net: net})
	}

	dst := sr.shards[0]
	var got []wire.FlowID
	dst.net.Deliver = func(at topology.NodeID, pkt *Packet) { got = append(got, pkt.Flow) }

	const T = simtime.Time(5000)
	flowLocal := wire.MakeFlowID(0, 1)
	flowLate := wire.MakeFlowID(100, 2)  // exported by shard 1, emitted at 3000
	flowEarly := wire.MakeFlowID(200, 3) // exported by shard 2, emitted at 1000

	// A local arrival scheduled while shard 0's clock sits at 2000: under
	// the serial engine it would fire between the two handoffs.
	dst.eng.Run(2000)
	local := dst.net.newPacket()
	local.Kind = KindData
	local.SizeBytes = 64
	local.Flow = flowLocal
	local.Dst = 0
	dst.eng.arm(T, 2000, tieKey(40, evArrive), 0, local)

	push := func(src int, at, emit simtime.Time, link topology.LinkID, flow wire.FlowID) {
		h := sr.shards[src].ctx.export(0)
		h.at = at
		h.emit = emit
		h.link = link
		h.node = 0
		h.kind = KindData
		h.size = 64
		h.flow = flow
		h.dst = 0
	}
	push(1, T, 3000, 10, flowLate)
	push(2, T, 1000, 90, flowEarly)

	// Three arrivals at T2, all stamped 4000: links 30 (local), 50 (shard 1)
	// and 20 (shard 2).
	const T2 = simtime.Time(6000)
	flowL20, flowL30, flowL50 := wire.MakeFlowID(200, 4), wire.MakeFlowID(0, 5), wire.MakeFlowID(100, 6)
	tied := dst.net.newPacket()
	tied.Kind = KindData
	tied.SizeBytes = 64
	tied.Flow = flowL30
	tied.Dst = 0
	dst.eng.arm(T2, 4000, tieKey(30, evArrive), 0, tied)
	push(1, T2, 4000, 50, flowL50)
	push(2, T2, 4000, 20, flowL20)

	sr.active = sr.shards // the exporters ran this epoch
	sr.drain()
	dst.eng.Run(T2)

	want := []wire.FlowID{flowEarly, flowLocal, flowLate, flowL20, flowL30, flowL50}
	if len(got) != len(want) {
		t.Fatalf("%d arrivals delivered, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival order %v, want %v: exact-ps cross-shard ties must resolve by emission time, then by link", got, want)
		}
	}
}
