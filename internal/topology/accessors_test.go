package topology

import "testing"

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindTorus:     "torus",
		KindMesh:      "mesh",
		KindClos:      "clos",
		KindMultiRack: "multirack",
		Kind(42):      "Kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	g, err := NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dims() != 3 || g.Radix() != 4 {
		t.Fatal("geometry accessors wrong")
	}
	if g.Degraded() {
		t.Fatal("fresh torus marked degraded")
	}
	if got := len(g.Out(0)); got != 6 {
		t.Fatalf("Out(0) = %d links", got)
	}
	if got := len(g.In(0)); got != 6 {
		t.Fatalf("In(0) = %d links", got)
	}
}

func TestWithoutLinksMarksDegraded(t *testing.T) {
	g, err := NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := g.LinkBetween(0, 1)
	sub, mapping, err := g.WithoutLinksAndNodes(marked(g.NumLinks(), ab), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Degraded() {
		t.Fatal("subgraph not degraded")
	}
	if len(mapping) != g.NumLinks()-1 {
		t.Fatalf("mapping size %d", len(mapping))
	}
	// Degradation is sticky across further removals.
	cd, _ := sub.LinkBetween(2, 3)
	sub2, _, err := sub.WithoutLinksAndNodes(marked(sub.NumLinks(), cd), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sub2.Degraded() {
		t.Fatal("degradation not inherited")
	}
}

func TestBroadcastTreeLinkLoad(t *testing.T) {
	g, err := NewTorus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree := fibTrees(g, 0, 1, 1)[0]
	load := make([]int, g.NumLinks())
	for v := range g.Vertices() {
		for _, lid := range treeChildren(tree, NodeID(v)) {
			load[lid]++
		}
	}
	total := 0
	for _, c := range load {
		if c != 0 && c != 1 {
			t.Fatalf("tree link load %d", c)
		}
		total += c
	}
	if total != g.Vertices()-1 {
		t.Fatalf("tree uses %d links, want %d", total, g.Vertices()-1)
	}
}

func TestNodeAtPanics(t *testing.T) {
	g, err := NewFoldedClos(2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertPanicsAcc(t, "Coord on clos", func() { g.Coord(0) })
	assertPanicsAcc(t, "NodeAt on clos", func() { g.NodeAt([]int{0}) })
	torus, err := NewTorus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertPanicsAcc(t, "NodeAt dims", func() { torus.NodeAt([]int{1}) })
	assertPanicsAcc(t, "TorusOffset on clos", func() { g.TorusOffset(0, 1) })
}

func assertPanicsAcc(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
