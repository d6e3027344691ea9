package topology

import "fmt"

// Bridge is one direct cable between two racks: node NodeA of rack RackA
// connects to node NodeB of rack RackB (both directions are created).
type Bridge struct {
	RackA, RackB int
	NodeA, NodeB NodeID
}

// ConnectRacks joins multiple rack fabrics into one larger direct-connect
// network with switchless inter-rack cables — the §6 "Inter-rack
// networking" direction the paper favours over Ethernet bridging
// ("directly connect multiple rack-scale computers without using any
// switch, similar to [49]; Theia [47] also proposes such design with
// multiple parallel connections between racks").
//
// Rack i's node v becomes global node offset(i)+v, where offset is the
// cumulative node count of earlier racks. The combined graph reports
// KindMultiRack; coordinate-based routing (DOR, WLB quadrant walks)
// automatically degrades to minimal-DAG routing on it, while RPS, VLB and
// the broadcast plane work unchanged — which is exactly why R2C2's stack
// runs across racks without modification.
func ConnectRacks(racks []*Graph, bridges []Bridge) (*Graph, error) {
	if len(racks) < 2 {
		return nil, fmt.Errorf("topology: ConnectRacks needs at least two racks")
	}
	if len(bridges) == 0 {
		return nil, fmt.Errorf("topology: ConnectRacks needs at least one bridge")
	}
	// Endpoint nodes must come first in the combined numbering, so racks
	// with internal switches (Clos) cannot be combined naively.
	offsets := make([]int, len(racks))
	total := 0
	for i, g := range racks {
		if g.Nodes() != g.Vertices() {
			return nil, fmt.Errorf("topology: rack %d has internal switches; not supported", i)
		}
		offsets[i] = total
		total += g.Nodes()
	}
	var edges []Link
	for i, g := range racks {
		off := NodeID(offsets[i])
		for lid := 0; lid < g.NumLinks(); lid++ {
			l := g.Link(LinkID(lid))
			edges = append(edges, Link{From: l.From + off, To: l.To + off})
		}
	}
	for _, b := range bridges {
		if b.RackA < 0 || b.RackA >= len(racks) || b.RackB < 0 || b.RackB >= len(racks) {
			return nil, fmt.Errorf("topology: bridge references rack out of range: %+v", b)
		}
		if b.RackA == b.RackB {
			return nil, fmt.Errorf("topology: bridge within one rack: %+v", b)
		}
		if int(b.NodeA) >= racks[b.RackA].Nodes() || int(b.NodeB) >= racks[b.RackB].Nodes() {
			return nil, fmt.Errorf("topology: bridge node out of range: %+v", b)
		}
		a := b.NodeA + NodeID(offsets[b.RackA])
		c := b.NodeB + NodeID(offsets[b.RackB])
		edges = append(edges, Link{From: a, To: c}, Link{From: c, To: a})
	}
	g, err := NewGraph(KindMultiRack, total, total, edges)
	if err != nil {
		return nil, err
	}
	// Record which rack every node came from: shard partitioning and
	// inter-rack link timing key off this metadata.
	g.rackOf = make([]int32, total)
	for i := range racks {
		for v := 0; v < racks[i].Nodes(); v++ {
			g.rackOf[offsets[i]+v] = int32(i)
		}
	}
	g.racks = len(racks)
	// Verify the bridges actually connect everything.
	if v := g.firstUnreached(0, false, nil); v >= 0 {
		return nil, fmt.Errorf("topology: combined fabric is disconnected at node %d", v)
	}
	return g, nil
}
