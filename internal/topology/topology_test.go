package topology

import (
	"testing"
	"testing/quick"
)

func TestTorusSizes(t *testing.T) {
	cases := []struct {
		k, dims  int
		nodes    int
		degree   int
		diameter int
	}{
		{3, 1, 3, 2, 1},
		{4, 2, 16, 4, 4},
		{3, 3, 27, 6, 3},
		{8, 2, 64, 4, 8},
		{4, 3, 64, 6, 6},
		{2, 3, 8, 3, 3}, // k=2: one link per dimension
	}
	for _, c := range cases {
		g, err := NewTorus(c.k, c.dims)
		if err != nil {
			t.Fatalf("NewTorus(%d,%d): %v", c.k, c.dims, err)
		}
		if g.Nodes() != c.nodes {
			t.Errorf("torus %d^%d: nodes = %d, want %d", c.k, c.dims, g.Nodes(), c.nodes)
		}
		for v := 0; v < g.Nodes(); v++ {
			if got := g.Degree(NodeID(v)); got != c.degree {
				t.Fatalf("torus %d^%d: degree(%d) = %d, want %d", c.k, c.dims, v, got, c.degree)
			}
		}
		if got := g.Diameter(); got != c.diameter {
			t.Errorf("torus %d^%d: diameter = %d, want %d", c.k, c.dims, got, c.diameter)
		}
	}
}

func TestTorusInvalid(t *testing.T) {
	if _, err := NewTorus(1, 2); err == nil {
		t.Error("NewTorus(1,2) should fail")
	}
	if _, err := NewTorus(4, 0); err == nil {
		t.Error("NewTorus(4,0) should fail")
	}
	if _, err := NewMesh(0, 1); err == nil {
		t.Error("NewMesh(0,1) should fail")
	}
}

func TestCoordRoundTrip(t *testing.T) {
	g, err := NewTorus(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		id := NodeID(int(raw) % g.Nodes())
		return g.NodeAt(g.Coord(id)) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTorusOffset(t *testing.T) {
	g, err := NewTorus(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := g.NodeAt([]int{0, 0})
	cases := []struct {
		coord []int
		want  []int
	}{
		{[]int{1, 0}, []int{1, 0}},
		{[]int{7, 0}, []int{-1, 0}},
		{[]int{4, 4}, []int{4, 4}}, // ties go positive
		{[]int{5, 2}, []int{-3, 2}},
		{[]int{0, 0}, []int{0, 0}},
	}
	for _, c := range cases {
		got := g.TorusOffset(a, g.NodeAt(c.coord))
		if got[0] != c.want[0] || got[1] != c.want[1] {
			t.Errorf("offset to %v = %v, want %v", c.coord, got, c.want)
		}
	}
}

func TestFoldedClos(t *testing.T) {
	g, err := NewFoldedClos(4, 2, 8) // 32 hosts, 4 leaves, 2 spines
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 32 {
		t.Fatalf("nodes = %d, want 32", g.Nodes())
	}
	if g.Vertices() != 38 {
		t.Fatalf("vertices = %d, want 38", g.Vertices())
	}
	// Same-leaf pairs: 2 hops; cross-leaf: 4 hops.
	if d := g.Dist(0, 1); d != 2 {
		t.Errorf("same-leaf dist = %d, want 2", d)
	}
	if d := g.Dist(0, 8); d != 4 {
		t.Errorf("cross-leaf dist = %d, want 4", d)
	}
}

func TestMeanNodeDistance(t *testing.T) {
	// Paper §3.2: "The average path length for a flow in a 512-node 3D
	// torus is 6 hops."
	g, err := NewTorus(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	mean := g.MeanNodeDistance()
	if mean < 5.9 || mean > 6.1 {
		t.Errorf("512-node 3D torus mean distance = %.3f, want ~6", mean)
	}
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(KindTorus, 2, 2, []Link{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewGraph(KindTorus, 2, 2, []Link{{0, 1}, {0, 1}}); err == nil {
		t.Error("duplicate edge accepted")
	}
	if _, err := NewGraph(KindTorus, 2, 2, []Link{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := NewGraph(KindTorus, 0, 0, nil); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestLinkBetween(t *testing.T) {
	g, err := NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := g.NodeAt([]int{0, 0})
	b := g.NodeAt([]int{1, 0})
	id, ok := g.LinkBetween(a, b)
	if !ok {
		t.Fatal("adjacent nodes have no link")
	}
	if l := g.Link(id); l.From != a || l.To != b {
		t.Fatalf("Link(%d) = %v, want %d->%d", id, l, a, b)
	}
	far := g.NodeAt([]int{2, 2})
	if _, ok := g.LinkBetween(a, far); ok {
		t.Error("non-adjacent nodes report a link")
	}
}

func testGraphs(t *testing.T) []*Graph {
	t.Helper()
	torus, err := NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := NewMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	clos, err := NewFoldedClos(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []*Graph{torus, mesh, clos}
}
