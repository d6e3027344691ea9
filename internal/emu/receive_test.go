package emu

import (
	"testing"

	"r2c2/internal/core"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// idleRack builds a 16-node rack that is never started: no link goroutine
// runs, so nothing but the caller moves a packet, and enqueue drops rather
// than blocks once a port is full.
func idleRack(t testing.TB) *Rack {
	t.Helper()
	g, err := topology.NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// receiveBcast encodes b and hands it to node at as a link would, then
// discards what the flood forwarded to the ports.
func receiveBcast(r *Rack, at topology.NodeID, b *wire.Broadcast) {
	r.receive(at, r.newBcastPkt(b), nil)
	for _, p := range r.ports {
		for len(p.ch) > 0 {
			pkt := <-p.ch
			p.queued.Add(int64(-len(pkt.buf)))
			r.pool.release(nil, pkt)
		}
	}
}

// FuzzEmuReceiveMatchesView decodes arbitrary bytes into broadcasts over four
// sources' flows, sequence numbers 0-7 and the same half the 16-bit space
// away — four bytes an event: op (and event kind), node, flow, value — and
// passes them through Rack.receive of an idle rack, at one node or at every
// node, interleaved with the dead-endpoint purge of a fabric swap. About one
// event kind in four is raw, so most of those are no kind at all. The
// reference is a core.View per node plus the set of flows whose finish the
// node applied; every start or finish, late or not, forgets the finish half
// the sequence space away, a node ignores its own flows' broadcasts, and a
// packet of no known kind is a drop. After every event each node's ViewLen
// and its FlowDemandAt of the event's flow must match the reference, and so
// must the drop count; every 16th event, and after the last, FlowDemandAt of
// every flow at every node.
func FuzzEmuReceiveMatchesView(f *testing.F) {
	f.Add([]byte{})
	// A finish at node 5 ahead of its start, then the start flooded: node 5
	// alone ignores it; an update follows everywhere.
	f.Add([]byte{4, 5, 0x34, 2, 1, 0, 0x34, 2, 9, 0, 0x34, 60})
	// A flooded start, its finish at two nodes, an unknown event kind, a
	// purge of the destination, and the flow half the sequence space away.
	f.Add([]byte{1, 0, 0x21, 3, 4, 7, 0x21, 3, 4, 8, 0x21, 3, 0xFC, 4, 0x21, 3, 2, 0, 0x21, 7, 1, 0, 0x29, 3})
	// A finish flooded everywhere, then starts of the flow half the sequence
	// space away and of the finished flow's wrapped-around sequence number.
	f.Add([]byte{5, 0, 0x21, 3, 1, 0, 0x29, 3, 1, 0, 0x21, 3})
	// At node 5, finishes ahead of their starts: the late start half the
	// sequence space away still clears the record of the wrapped-around flow.
	f.Add([]byte{4, 5, 0x34, 2, 4, 5, 0x3C, 2, 0, 5, 0x3C, 2, 0, 5, 0x34, 2})
	// At node 5, a finish half the sequence space away clears the record as
	// a start would: the wrapped-around start then applies.
	f.Add([]byte{4, 5, 0x34, 2, 4, 5, 0x3C, 2, 0, 5, 0x34, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4*1024)]
		r := idleRack(t)
		nodes := r.cfg.Graph.Nodes()
		views, fin := make([]*core.View, nodes), make([]map[wire.FlowID]bool, nodes)
		for n := range views {
			views[n], fin[n] = core.NewView(), map[wire.FlowID]bool{}
		}
		const sources = 4
		drops := uint64(0)
		apply := func(at int, b *wire.Broadcast) {
			id := b.Flow()
			switch {
			case b.Event < wire.EventFlowStart || b.Event > wire.EventRouteChange:
				drops++
				return
			case int(b.Src) == at:
				return
			case b.Event == wire.EventFlowStart:
				if delete(fin[at], id^0x8000); fin[at][id] {
					return
				}
			case b.Event == wire.EventFlowFinish:
				delete(fin[at], id^0x8000)
				fin[at][id] = true
			}
			if err := views[at].Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		check := func(step, at int, id wire.FlowID) {
			d, ok := r.FlowDemandAt(topology.NodeID(at), id)
			if want, wok := views[at].Get(id); ok != wok || (ok && d != want.DemandKbps) {
				t.Fatalf("step %d, node %d, flow %v: demand %d %v; View %d %v", step, at, id, d, ok, want.DemandKbps, wok)
			}
		}
		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			at := int(data[1]) % nodes
			src := uint16(data[2]>>4) % sources
			info := core.FlowInfo{ID: wire.MakeFlowID(src, uint16(data[2]&7)|uint16(data[2]&8)<<12),
				Src: topology.NodeID(src), Dst: topology.NodeID((int(src) + 5) % nodes), Weight: 1,
				DemandKbps: uint32(data[3]), Protocol: r.cfg.Protocol}
			switch op := data[0] % 4; op {
			case 2: // a fabric swap's purge of a dead node's flows
				dead := make([]bool, r.cfg.Graph.Vertices())
				dead[int(data[3])%nodes] = true
				for _, v := range views {
					for _, fi := range v.Flows() {
						if dead[fi.Src] || dead[fi.Dst] {
							v.RemoveFlow(fi.ID)
						}
					}
				}
				r.reannounce(dead)
			default: // one node (ops 0 and 3) or every node (op 1)
				b := info.StartBroadcast(data[3] % treesPerSource)
				if k := data[0] >> 2; k < 48 {
					b.Event = wire.EventFlowStart + wire.EventKind(k%4)
				} else {
					b.Event = wire.EventKind(k & 0xF)
				}
				for n := range nodes {
					if op == 1 || n == at {
						apply(n, b)
						receiveBcast(r, topology.NodeID(n), b)
					}
				}
			}
			if r.Drops() != drops {
				t.Fatalf("step %d: %d drops, want %d", step, r.Drops(), drops)
			}
			for n, v := range views {
				if got := r.ViewLen(topology.NodeID(n)); got != v.Len() {
					t.Fatalf("step %d, node %d: view of %d flows, View %d", step, n, got, v.Len())
				}
				check(step, n, info.ID)
			}
			if step%16 != 0 && len(data) >= 8 {
				continue
			}
			for n := range views {
				for s := range uint16(sources) {
					for _, seq := range []uint16{0, 1, 2, 3, 4, 5, 6, 7, 0x8000, 0x8001, 0x8002, 0x8003, 0x8004, 0x8005, 0x8006, 0x8007} {
						check(step, n, wire.MakeFlowID(s, seq))
					}
				}
			}
		}
	})
}
