package sim

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"r2c2/internal/core"
	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
	"r2c2/internal/wire"
)

// ghostFlow is a flow of src no transport started, for delivering its
// broadcasts by hand.
func ghostFlow(src topology.NodeID, seq uint16) core.FlowInfo {
	return core.FlowInfo{ID: wire.MakeFlowID(uint16(src), seq), Src: src, Dst: (src + 4) % 16, Weight: 1,
		DemandKbps: core.UnlimitedDemand, Protocol: routing.RPS}
}

// deliverBcast hands b to node at as a flood copy.
func deliverBcast(r *R2C2, at topology.NodeID, b *wire.Broadcast) {
	r.deliver(at, &Packet{Kind: KindBroadcast, SizeBytes: BroadcastBytes, Flow: b.Flow(), Src: topology.NodeID(b.Src), Bcast: b})
}

// checkColumns holds every owned node's running digest and count to the
// flow list of its column.
func checkColumns(t testing.TB, r *R2C2) {
	t.Helper()
	for _, n := range r.nodes {
		if n == nil {
			continue
		}
		if v := r.View(n.ID); r.vis.Digest(n.Col) != v.Hash() || r.vis.Len(n.Col) != v.Len() {
			t.Fatalf("node %d: digest %x, live %d; its flows hash to %x, count %d", n.ID, r.vis.Digest(n.Col), r.vis.Len(n.Col), v.Hash(), v.Len())
		}
	}
}

// TestFinishTombstonesPerFlow checks the finished-flow memory of the
// visibility rows. Waves of flows that all complete leave one tombstone bit
// per flow, no open row, and no more rows than the peak of flows in flight.
// Ghost flows then take recycled rows, which come back zeroed; a late start
// is rejected at exactly the nodes that applied the flow's finish, and a
// sequence number that never finished, between two that did, stays open.
// Last, a flow whose finish reaches every node of a shard before any start
// retires at once, and its late start is ignored.
func TestFinishTombstonesPerFlow(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: rigProp})
	r := NewR2C2(net, routing.NewTable(g), R2C2Config{Headroom: 0.05, Protocol: routing.RPS})
	const flows, waves = 12, 3
	for w := 0; w < waves; w++ {
		for i := 0; i < flows; i++ {
			r.StartFlow(topology.NodeID(i), topology.NodeID((i+5+w)%g.Nodes()), 64<<10, 1, 0)
		}
		eng.Run(eng.Now() + 10*simtime.Millisecond)
		for id, rec := range r.Ledger() {
			if !rec.Done || !r.vis.Retired(id) {
				t.Fatalf("wave %d: flow %v done %v, retired %v", w, id, rec.Done, r.vis.Retired(id))
			}
		}
		tombs := 0
		for src := range uint16(g.Nodes()) {
			for seq := range uint16(256) {
				if r.vis.Retired(wire.MakeFlowID(src, seq)) {
					tombs++
				}
			}
		}
		if open, _ := r.vis.Rows(); open != 0 || tombs != (w+1)*flows {
			t.Fatalf("wave %d: %d open rows, %d tombstones for %d finished flows", w, open, tombs, (w+1)*flows)
		}
		checkColumns(t, r)
	}
	_, slab := r.vis.Rows()
	if slab > flows {
		t.Fatalf("%d rows after %d waves of %d flows: rows are not recycled", slab, waves, flows)
	}

	// Flows nobody has heard of, from node 9: the finishes of seq 76 and 78
	// reach nodes 1 and 2 only, seq 77 never finishes, then retransmitted
	// starts of all three reach 1, 2 and 3.
	for _, at := range []topology.NodeID{1, 2} {
		for _, seq := range []uint16{78, 76} {
			f := ghostFlow(9, seq)
			deliverBcast(r, at, f.FinishBroadcast(0))
		}
	}
	for _, at := range []topology.NodeID{1, 2, 3} {
		for seq := uint16(76); seq <= 78; seq++ {
			f := ghostFlow(9, seq)
			deliverBcast(r, at, f.StartBroadcast(0))
		}
	}
	checkColumns(t, r)
	if open, n := r.vis.Rows(); open != 3 || n != slab {
		t.Fatalf("three ghost flows hold %d open rows and grew the slab from %d to %d rows with every row free", open, slab, n)
	}
	for seq := uint16(76); seq <= 78; seq++ {
		for _, at := range []topology.NodeID{1, 2, 3} {
			want := at == 3 || seq == 77 // rejected only where the finish was seen
			if _, has := r.View(at).Get(ghostFlow(9, seq).ID); has != want {
				t.Errorf("node %d, flow 9.%d: late start applied = %v, want %v", at, seq, has, want)
			}
		}
	}
	// The recycled row of seq 77 holds its one entry at nodes 1-3 and
	// nothing anywhere else.
	for _, n := range r.nodes {
		flows := r.vis.AppendFlows(nil, n.Col)
		i := slices.IndexFunc(flows, func(f core.FlowInfo) bool { return f.ID == ghostFlow(9, 77).ID })
		if want := n.ID >= 1 && n.ID <= 3; (i >= 0) != want || (i >= 0 && flows[i] != ghostFlow(9, 77)) {
			t.Errorf("recycled row of flow 9.77: node %d holds %v", n.ID, flows)
		}
	}

	// A shard owning nodes 0-7 sees a finish of node 12's flow reach all of
	// them before any start: the row retires on the last finish, and the
	// late start and demand update find the tombstone.
	shardOf := make([]int32, g.Nodes())
	for n := 8; n < g.Nodes(); n++ {
		shardOf[n] = 1
	}
	half := NewNetwork(g, &Engine{}, NetConfig{LinkGbps: 10, PropDelay: rigProp})
	half.sh = &shardCtx{shardOf: shardOf}
	rs := NewR2C2(half, routing.NewTable(g), R2C2Config{Protocol: routing.RPS})
	f := ghostFlow(12, 0)
	for at := topology.NodeID(0); at < 8; at++ {
		deliverBcast(rs, at, f.FinishBroadcast(0))
	}
	if open, _ := rs.vis.Rows(); !rs.vis.Retired(f.ID) || open != 0 {
		t.Fatalf("finish at every owned node before any start: retired %v, %d open rows", rs.vis.Retired(f.ID), open)
	}
	for at := topology.NodeID(0); at < 8; at++ {
		deliverBcast(rs, at, f.StartBroadcast(0))
		up := f.Broadcast(wire.EventDemandUpdate, 0)
		deliverBcast(rs, at, &up)
		if v := rs.View(at); v.Len() != 0 {
			t.Fatalf("node %d: the late start of a retired flow was applied", at)
		}
	}
	checkColumns(t, rs)
}

// TestCrashPurgeFreesRows crashes a node of rack 2 under the sharded
// reference workload, while 8 MiB flows to and from it cross every rack. The
// purge takes its flows out of every view with no finish, so in the other
// racks' shards, whose nodes all still hear every finish, a purged flow's row
// must be freed, not kept open for the rest of the run: once the surviving
// flows finish, no row is open there. (The crashed node's own shard keeps the
// rows its dead column holds.)
func TestCrashPurgeFreesRows(t *testing.T) {
	const dead = 23 // rack 2, node 5
	cfg := shardWorkload(t, 2)
	for _, p := range [][2]topology.NodeID{{3, dead}, {dead, 30}, {10, dead}, {dead, 34}} {
		cfg.Arrivals = append(cfg.Arrivals, trafficgen.Arrival{At: 3 * simtime.Millisecond, Src: p[0], Dst: p[1], SizeBytes: 8 << 20, Weight: 1})
	}
	slices.SortStableFunc(cfg.Arrivals, func(a, b trafficgen.Arrival) int { return cmp.Compare(a.At, b.At) })
	cfg.Faults = faults.Schedule{Events: []faults.Event{
		{At: 4 * time.Millisecond, Kind: faults.NodeDown, Node: dead, Detect: 300 * time.Microsecond},
	}}
	sr := newShardedRun(cfg, arrivalsPerSource(cfg))
	sr.run()
	sr.workers.stop()
	abandoned := 0
	for _, st := range sr.shards {
		for _, rec := range st.flows.order {
			if (rec.Src == dead || rec.Dst == dead) && !rec.Done && rec.Started < simAt(4*time.Millisecond) {
				abandoned++
			}
		}
		if st.ctx.shardOf[dead] == st.ctx.self {
			continue
		}
		if open, _ := st.r2.vis.Rows(); open != 0 {
			t.Errorf("shard %d: %d rows still open after every surviving flow finished", st.ctx.self, open)
		}
	}
	if abandoned == 0 {
		t.Fatal("the crash abandoned no flow in flight: nothing was purged")
	}
}
