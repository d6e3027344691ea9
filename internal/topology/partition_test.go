package topology

import "testing"

func mustTorus(t *testing.T, k, dims int) *Graph {
	t.Helper()
	g, err := NewTorus(k, dims)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionMultiRack(t *testing.T) {
	r0 := mustTorus(t, 3, 2)
	r1 := mustTorus(t, 3, 2)
	r2 := mustTorus(t, 3, 2)
	g, err := ConnectRacks([]*Graph{r0, r1, r2}, []Bridge{
		{RackA: 0, RackB: 1, NodeA: 0, NodeB: 0},
		{RackA: 1, RackB: 2, NodeA: 1, NodeB: 1},
		{RackA: 2, RackB: 0, NodeA: 2, NodeB: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Racks(); got != 3 {
		t.Fatalf("Racks() = %d, want 3", got)
	}
	p, err := NewPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", p.Shards())
	}
	// Every node maps to the rack it was built in.
	for v := 0; v < g.Nodes(); v++ {
		want := int32(v / 9)
		if p.ShardOf(NodeID(v)) != want {
			t.Fatalf("ShardOf(%d) = %d, want %d", v, p.ShardOf(NodeID(v)), want)
		}
		if g.RackOf(NodeID(v)) != int(want) {
			t.Fatalf("RackOf(%d) = %d, want %d", v, g.RackOf(NodeID(v)), want)
		}
	}
	// Exactly the six bridge directions are boundary links, and each is
	// reported as inter-rack.
	if len(p.BoundaryLinks()) != 6 {
		t.Fatalf("boundary links = %d, want 6", len(p.BoundaryLinks()))
	}
	for _, lid := range p.BoundaryLinks() {
		if !g.IsInterRack(lid) {
			t.Fatalf("boundary link %d not inter-rack", lid)
		}
	}
	interRack := 0
	for lid := 0; lid < g.NumLinks(); lid++ {
		if g.IsInterRack(LinkID(lid)) {
			interRack++
		}
	}
	if interRack != 6 {
		t.Fatalf("inter-rack links = %d, want 6", interRack)
	}
}

func TestPartitionClosByLeaf(t *testing.T) {
	g, err := NewFoldedClos(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Racks() != 4 {
		t.Fatalf("Racks() = %d, want 4", g.Racks())
	}
	p, err := NewPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", p.Shards())
	}
	// Hosts and their leaf switch share a shard.
	for h := 0; h < g.Nodes(); h++ {
		leaf := NodeID(g.Nodes() + h/4)
		if p.ShardOf(NodeID(h)) != p.ShardOf(leaf) {
			t.Fatalf("host %d and leaf %d in different shards", h, leaf)
		}
	}
	// Spines are spread round-robin across shards.
	s0 := p.ShardOf(NodeID(g.Nodes() + 4))
	s1 := p.ShardOf(NodeID(g.Nodes() + 5))
	if s0 != 0 || s1 != 1 {
		t.Fatalf("spine shards = %d,%d, want 0,1", s0, s1)
	}
	// Host-leaf links never cross shards; every boundary link touches a
	// leaf-spine pair.
	for _, lid := range p.BoundaryLinks() {
		l := g.Link(lid)
		if int(l.From) < g.Nodes() || int(l.To) < g.Nodes() {
			t.Fatalf("boundary link %d touches a host: %+v", lid, l)
		}
	}
}

func TestPartitionSingleRackErrors(t *testing.T) {
	g := mustTorus(t, 4, 2)
	if _, err := NewPartition(g); err == nil {
		t.Fatal("NewPartition on a single rack should fail")
	}
	if g.Racks() != 0 || g.RackOf(0) != -1 || g.IsInterRack(0) {
		t.Fatal("single-rack fabric should report no rack structure")
	}
}

func TestPartitionSurvivesDegradedFabric(t *testing.T) {
	r0 := mustTorus(t, 3, 2)
	r1 := mustTorus(t, 3, 2)
	g, err := ConnectRacks([]*Graph{r0, r1}, []Bridge{
		{RackA: 0, RackB: 1, NodeA: 0, NodeB: 0},
		{RackA: 0, RackB: 1, NodeA: 4, NodeB: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	lid, ok := g.LinkBetween(1, 2)
	if !ok {
		t.Fatal("missing intra-rack link")
	}
	sub, _, err := g.WithoutLinks(lid)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Racks() != 2 || sub.RackOf(9) != 1 {
		t.Fatal("degraded fabric lost its rack metadata")
	}
}
