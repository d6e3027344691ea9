package sim

import (
	"slices"
	"testing"

	"r2c2/internal/core"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// checkRows holds the visibility rows to their invariants: every index entry
// names its own in-use row of that flow, and every other row is free and
// zeroed; a row's counts match its cells; and every node's digest and live
// count match the cells it holds.
func checkRows(t testing.TB, r *R2C2) {
	t.Helper()
	free := map[int32]bool{}
	for _, i := range r.freeRows {
		free[i] = true
	}
	named := map[int32]bool{}
	for src, idx := range r.vis {
		for seq, h := range idx {
			if h <= 0 {
				continue
			}
			if i := h - 1; named[i] || free[i] || r.rows[i].id != wire.MakeFlowID(uint16(src), uint16(seq)) {
				t.Fatalf("flow %d.%d names row %d: shared, free or another flow's (%v)", src, seq, i, r.rows[i].id)
			}
			named[h-1] = true
		}
	}
	if len(named)+len(free) != len(r.rows) {
		t.Fatalf("%d rows named, %d free, %d in the slab", len(named), len(free), len(r.rows))
	}
	digest, live := make([]uint64, len(r.nodes)), make([]int32, len(r.nodes))
	for i := range r.rows {
		rw := &r.rows[i]
		var l, d int32
		for _, n := range r.nodes {
			if n == nil {
				continue
			}
			switch c := *r.cell(int32(i), n); {
			case c == visFinished:
				d++
			case int(c)-2 >= len(rw.entries):
				t.Fatalf("row %d: node %d's cell %d is past the row's %d entries", i, n.id, c, len(rw.entries))
			case c > visFinished:
				l++
				digest[n.id] ^= rw.entries[c-2].digest
				live[n.id]++
			}
		}
		if l != rw.live || d != rw.done {
			t.Fatalf("row %d (flow %v): counts live %d, done %d; cells hold %d and %d", i, rw.id, rw.live, rw.done, l, d)
		}
		if free[int32(i)] && (l+d != 0 || len(rw.entries) != 0) {
			t.Fatalf("free row %d holds %d live and %d finished cells, %d entries", i, l, d, len(rw.entries))
		}
	}
	for _, n := range r.nodes {
		if n != nil && (n.digest != digest[n.id] || n.live != live[n.id]) {
			t.Fatalf("node %d: digest %x, live %d; its cells give %x, %d", n.id, n.digest, n.live, digest[n.id], live[n.id])
		}
	}
}

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

// TestFinishTombstonesPerFlow checks the finished-flow memory of the
// visibility rows. Waves of flows that all complete leave one tombstone per
// flow in the index, no live row, and no more rows than the peak of flows in
// flight. Ghost flows past the end of a source's index then take recycled
// rows, which come back zeroed; a late start is rejected at exactly the
// nodes that applied the flow's finish, and a sequence number that never
// finished, between two that did, stays open. Last, a flow whose finish
// reaches every node of a shard before any start retires at once, and its
// late start is ignored.
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
			if !rec.Done {
				t.Fatalf("wave %d: flow %v incomplete", w, id)
			}
		}
		tombs := 0
		for src, idx := range r.vis {
			for seq, h := range idx {
				switch {
				case h == visRetired:
					tombs++
				case h != 0:
					t.Fatalf("wave %d: finished flow %d.%d still holds row %d", w, src, seq, h-1)
				}
			}
		}
		if want := (w + 1) * flows; tombs != want {
			t.Fatalf("wave %d: %d tombstones for %d finished flows", w, tombs, want)
		}
		checkRows(t, r)
	}
	if len(r.rows) > flows {
		t.Fatalf("%d rows after %d waves of %d flows: rows are not recycled", len(r.rows), waves, flows)
	}
	slab := len(r.rows)

	// Flows nobody has heard of, from node 9, past the end of its index: the
	// finishes of seq 76 and 78 reach nodes 1 and 2 only, seq 77 never
	// finishes, then retransmitted starts of all three reach 1, 2 and 3.
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
	checkRows(t, r)
	if len(r.rows) != slab {
		t.Fatalf("three ghost flows grew the slab from %d to %d rows with every row free", slab, len(r.rows))
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
	i := r.visRowOf(ghostFlow(9, 77).ID, false)
	if rw := &r.rows[i]; len(rw.entries) != 1 || rw.entries[0].info != ghostFlow(9, 77) || rw.live != 3 || rw.done != 0 {
		t.Fatalf("recycled row of flow 9.77: %d entries, live %d, done %d", len(rw.entries), rw.live, rw.done)
	}
	for _, n := range r.nodes {
		if want := n.id >= 1 && n.id <= 3; (*r.cell(i, n) == 2) != want || (!want && *r.cell(i, n) != visAbsent) {
			t.Errorf("recycled row of flow 9.77: node %d holds cell %d", n.id, *r.cell(i, n))
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
	if h := rs.vis[12][0]; h != visRetired || len(rs.freeRows) != len(rs.rows) {
		t.Fatalf("finish at every owned node before any start: index entry %d, %d of %d rows free", h, len(rs.freeRows), len(rs.rows))
	}
	for at := topology.NodeID(0); at < 8; at++ {
		deliverBcast(rs, at, f.StartBroadcast(0))
		deliverBcast(rs, at, f.DemandBroadcast(0))
		if v := rs.View(at); v.Len() != 0 {
			t.Fatalf("node %d: the late start of a retired flow was applied", at)
		}
	}
	checkRows(t, rs)
}

// visRef is the reference the rows are held to: one core.View per node,
// with the per-node finish tombstones the simulator kept beside its views.
type visRef struct {
	views []*core.View
	fin   []map[wire.FlowID]bool
}

func (ref *visRef) apply(at int, b *wire.Broadcast) {
	switch b.Event {
	case wire.EventFlowStart:
		if ref.fin[at][b.Flow()] {
			return
		}
	case wire.EventFlowFinish:
		ref.fin[at][b.Flow()] = true
	}
	if err := ref.views[at].Apply(b); err != nil {
		panic(err)
	}
}

// FuzzVisibilityMatchesView decodes arbitrary bytes into a visibility event
// stream over a four-node ring and 64 flows — four bytes an event: op,
// node (and a flood's event kind), flow, value — and drives the rows of one R2C2 instance and the
// View-per-node reference with it: starts, finishes, demand and route
// changes at one node or flooded to all, the origin's own add and remove,
// and purges of a dead node's flows. Duplicates, late starts and updates to
// absent flows fall out of the small ID space. After every event each
// node's digest and live count must equal its View's Hash and Len; every
// 16th event, and after the last, its sorted flow list and R2C2.View
// snapshot must equal the View's flows, and the rows must pass checkRows.
func FuzzVisibilityMatchesView(f *testing.F) {
	f.Add([]byte{})
	// A finish flooded to every node before any start retires the row; the
	// late start and update are then ignored.
	f.Add([]byte{7, 4, 0x12, 1, 0, 0, 0x12, 5, 0, 3, 0x12, 5, 2, 3, 0x12, 9})
	// A flow started at two nodes, finished everywhere (its row retires),
	// then a new flow takes the recycled row and is updated.
	f.Add([]byte{0, 0, 0x00, 7, 0, 2, 0x00, 7, 7, 4, 0x00, 1, 0, 1, 0x01, 3, 2, 1, 0x01, 9, 3, 1, 0x01, 2, 0, 0, 0x00, 7})
	// The origin adds, updates and finishes a flow; a purge of its
	// destination's flows hits another.
	f.Add([]byte{4, 1, 0x13, 0, 7, 0, 0x13, 0, 4, 1, 0x13, 40, 5, 1, 0x13, 0, 0, 3, 0x21, 6, 6, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4*4096)]
		const nodes = 4
		g := torus(t, nodes, 1)
		r := NewR2C2(NewNetwork(g, &Engine{}, NetConfig{LinkGbps: 10}), routing.NewTable(g), R2C2Config{})
		ref := &visRef{}
		for range nodes {
			ref.views = append(ref.views, core.NewView())
			ref.fin = append(ref.fin, map[wire.FlowID]bool{})
		}
		var buf []core.FlowInfo
		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			at := int(data[1] % nodes)
			src := topology.NodeID((data[2] >> 4) % nodes)
			info := core.FlowInfo{ID: wire.MakeFlowID(uint16(src), uint16(data[2]%16)), Src: src, Dst: (src + 1) % nodes,
				Weight: 1, DemandKbps: uint32(data[3]), Protocol: routing.Protocol(data[3] % 4)}
			node := r.nodes[at]
			switch op := data[0] % 8; op {
			case 4: // the origin's own add: never over its own finish
				if !ref.fin[at][info.ID] {
					ref.views[at].AddFlow(info)
					r.hold(node, info)
				}
			case 5: // the origin's own remove, of a flow it holds: its finish
				if _, ok := ref.views[at].Get(info.ID); ok {
					ref.views[at].RemoveFlow(info.ID)
					ref.fin[at][info.ID] = true
					r.setCell(node, r.visRowOf(info.ID, false), visFinished)
				}
			case 6: // a purge of a dead node's flows
				dead := topology.NodeID(data[3] % nodes)
				for _, v := range ref.views {
					for _, fi := range v.Flows() {
						if fi.Src == dead || fi.Dst == dead {
							v.RemoveFlow(fi.ID)
						}
					}
				}
				r.deadNodes[dead] = true
				r.purgeDead()
				r.deadNodes[dead] = false
			default: // one event at one node (ops 0-3) or flooded to all (op 7)
				ev := wire.EventFlowStart + wire.EventKind(op)
				if op == 7 {
					ev = wire.EventFlowStart + wire.EventKind(data[1]>>2%4)
				}
				b := info.StartBroadcast(0)
				b.Event = ev
				for n := range nodes {
					if op == 7 || n == at {
						ref.apply(n, b)
						r.apply(r.nodes[n], b)
					}
				}
			}
			full := step%16 == 0 || len(data) < 8
			for n, v := range ref.views {
				rn := r.nodes[n]
				if rn.digest != v.Hash() || int(rn.live) != v.Len() {
					t.Fatalf("step %d, node %d: digest %x, live %d; View hash %x, len %d", step, n, rn.digest, rn.live, v.Hash(), v.Len())
				}
				if !full {
					continue
				}
				buf = r.liveFlows(buf[:0], rn)
				if want := v.Flows(); !slices.Equal(buf, want) || !slices.Equal(r.View(topology.NodeID(n)).Flows(), want) {
					t.Fatalf("step %d, node %d: flows %v, snapshot %v; View %v", step, n, buf, r.View(topology.NodeID(n)).Flows(), want)
				}
			}
			if full {
				checkRows(t, r)
			}
		}
	})
}
