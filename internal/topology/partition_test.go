package topology

import "testing"

func mustTorus(t testing.TB, k, dims int) *Graph {
	t.Helper()
	g, err := NewTorus(k, dims)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// marked returns an n-entry mask with ids set: a failed-link or dead-node
// argument of WithoutLinksAndNodes.
func marked[T LinkID | NodeID](n int, ids ...T) []bool {
	m := make([]bool, n)
	for _, id := range ids {
		m[id] = true
	}
	return m
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

// ring joins `racks` 4-ary 3-cubes (64 nodes each) in a ring, each to its
// successor by two cables.
func ring(t testing.TB, racks int) *Graph {
	t.Helper()
	subs := make([]*Graph, racks)
	var bridges []Bridge
	for i := range subs {
		subs[i] = mustTorus(t, 4, 3)
		j := (i + 1) % racks
		bridges = append(bridges,
			Bridge{RackA: i, RackB: j, NodeA: 0, NodeB: 7},
			Bridge{RackA: i, RackB: j, NodeA: 11, NodeB: 4})
	}
	g, err := ConnectRacks(subs, bridges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionGrouped(t *testing.T) {
	g := ring(t, 8)
	racks, err := NewPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	halves, err := racks.Grouped(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if halves.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", halves.Shards())
	}
	for v := 0; v < g.Vertices(); v++ {
		if want := int32(v / 256); halves.ShardOf(NodeID(v)) != want {
			t.Fatalf("ShardOf(%d) = %d, want %d (contiguous halves)", v, halves.ShardOf(NodeID(v)), want)
		}
	}
	// The ring is cut twice (racks 3|4 and 7|0), two cables each, both
	// directions; every grouped boundary link is a rack boundary link.
	if n := len(halves.BoundaryLinks()); n != 8 {
		t.Fatalf("2 groups: %d boundary links, want 8", n)
	}
	rackBoundary := map[LinkID]bool{}
	for _, lid := range racks.BoundaryLinks() {
		rackBoundary[lid] = true
	}
	for _, n := range []int{2, 3, 5} {
		p, err := racks.Grouped(g, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, lid := range p.BoundaryLinks() {
			if !rackBoundary[lid] {
				t.Fatalf("%d groups: boundary link %d is not a rack boundary link", n, lid)
			}
		}
	}

	// Uneven: 4 racks into 3 groups is 2+1+1.
	g4 := ring(t, 4)
	racks4, err := NewPartition(g4)
	if err != nil {
		t.Fatal(err)
	}
	three, err := racks4.Grouped(g4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range []int32{0, 0, 1, 2} {
		if got := three.ShardOf(NodeID(64 * r)); got != want {
			t.Fatalf("4 racks into 3: rack %d in group %d, want %d", r, got, want)
		}
	}

	// At least as many groups as racks is the rack partition itself.
	for _, n := range []int{8, 9, 64} {
		if p, err := racks.Grouped(g, n); err != nil || p != racks {
			t.Fatalf("Grouped(%d) on 8 racks = %p, %v; want the rack partition", n, p, err)
		}
	}
	for _, n := range []int{1, 0, -1} {
		if _, err := racks.Grouped(g, n); err == nil {
			t.Fatalf("Grouped(%d) accepted", n)
		}
	}

	// Clos: 4 leaf groups into 2; the two spines land in different groups.
	clos, err := NewFoldedClos(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := NewPartition(clos)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := leaves.Grouped(clos, 2)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := pair.ShardOf(NodeID(clos.Nodes()+4)), pair.ShardOf(NodeID(clos.Nodes()+5))
	if s0 == s1 {
		t.Fatalf("both spines in group %d", s0)
	}
	if pair.ShardOf(0) != 0 || pair.ShardOf(NodeID(clos.Nodes()-1)) != 1 {
		t.Fatal("leaf groups not split into contiguous halves")
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
	sub, _, err := g.WithoutLinksAndNodes(marked(g.NumLinks(), lid), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Racks() != 2 || sub.RackOf(9) != 1 {
		t.Fatal("degraded fabric lost its rack metadata")
	}
}

// IsInterRack reports whether a directed link leaves its endpoint's rack
// group: an inter-rack bridge cable or a Clos leaf-spine hop. Always false
// on fabrics without rack structure.
func (g *Graph) IsInterRack(lid LinkID) bool {
	if g.rackOf == nil {
		return false
	}
	l := g.links[lid]
	return g.rackOf[l.From] != g.rackOf[l.To]
}
