package sim

import (
	"testing"

	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// TestEmissionStampComparator pins the engine's equal-timestamp tie-break:
// events are ordered by (at, emission time, seq), so a cross-shard handoff
// filed with an older emission stamp fires before a local event that was
// scheduled earlier by sequence number but emitted later by simulated time —
// the order the serial engine would have produced. The legacy heap and the
// timer wheel must agree (they are each other's oracle).
func TestEmissionStampComparator(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		name := "wheel"
		if legacy {
			name = "heap"
		}
		t.Run(name, func(t *testing.T) {
			eng := &Engine{}
			if legacy {
				eng.UseLegacyHeap()
			}
			var order []int
			record := func(id int) func() { return func() { order = append(order, id) } }
			const T = simtime.Time(100)
			// Local event scheduled while the clock sits at 50: emit 50.
			eng.Run(50)
			eng.Schedule(T, record(1))
			// A handoff emitted at 10 in another shard: despite its larger
			// sequence number it precedes the local event at the tie.
			eng.scheduleHandoff(T, 10, event{kind: evFunc, fn: record(2)})
			// A handoff emitted at exactly 50 ties with the local event on
			// emission time and falls back to sequence order (local first).
			eng.scheduleHandoff(T, 50, event{kind: evFunc, fn: record(3)})
			eng.Run(T)
			want := []int{2, 1, 3}
			if len(order) != len(want) {
				t.Fatalf("%d events fired, want %d", len(order), len(want))
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("dispatch order %v, want %v (emission stamp must break the tie)", order, want)
				}
			}
		})
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
	dst.eng.schedule(T, event{kind: evArrive, node: 0, pkt: local})

	push := func(src int, emit simtime.Time, flow wire.FlowID) {
		h := sr.shards[src].ctx.export(0)
		h.at = T
		h.emit = emit
		h.node = 0
		h.kind = KindData
		h.size = 64
		h.flow = flow
		h.dst = 0
	}
	push(1, 3000, flowLate)
	push(2, 1000, flowEarly)

	sr.active = sr.shards // the exporters ran this epoch
	sr.drain()
	dst.eng.Run(T)

	want := []wire.FlowID{flowEarly, flowLocal, flowLate}
	if len(got) != len(want) {
		t.Fatalf("%d arrivals delivered, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival order %v, want %v: exact-ps cross-shard ties must resolve by global emission order", got, want)
		}
	}
}
