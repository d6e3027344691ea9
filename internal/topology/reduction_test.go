package topology

import "testing"

// Children returns r's child racks in ascending order. The slice is owned
// by the tree.
func (t *ReductionTree) Children(r int) []int { return t.children[r] }

// Order returns the racks in BFS order from the root; iterating it in
// reverse visits every child before its parent — the bottom-up merge
// schedule. The slice is owned by the tree.
func (t *ReductionTree) Order() []int { return t.order }

// TestReductionTreeRing derives the reduction tree of a four-rack ring and
// pins the deterministic BFS shape: rack 0 is the root, each rack's parent
// is its smallest neighbour at the previous depth, and the reverse BFS
// order visits every child before its parent (the bottom-up merge
// schedule).
func TestReductionTreeRing(t *testing.T) {
	racks := []*Graph{mustTorus(t, 3, 2), mustTorus(t, 3, 2), mustTorus(t, 3, 2), mustTorus(t, 3, 2)}
	g, err := ConnectRacks(racks, []Bridge{
		{RackA: 0, RackB: 1, NodeA: 0, NodeB: 0},
		{RackA: 1, RackB: 2, NodeA: 1, NodeB: 1},
		{RackA: 2, RackB: 3, NodeA: 2, NodeB: 2},
		{RackA: 3, RackB: 0, NodeA: 3, NodeB: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewReductionTree(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root() != 0 {
		t.Fatalf("Root() = %d, want 0", tree.Root())
	}
	wantParent := []int{-1, 0, 1, 0}
	for r, want := range wantParent {
		if got := tree.Parent(r); got != want {
			t.Fatalf("Parent(%d) = %d, want %d", r, got, want)
		}
	}
	if tree.Depth() != 2 {
		t.Fatalf("Depth() = %d, want 2", tree.Depth())
	}
	order := tree.Order()
	if len(order) != 4 {
		t.Fatalf("Order() has %d racks, want 4", len(order))
	}
	pos := make(map[int]int, len(order))
	for i, r := range order {
		pos[r] = i
	}
	for r := 0; r < p.Shards(); r++ {
		if par := tree.Parent(r); par >= 0 && pos[par] >= pos[r] {
			t.Fatalf("rack %d appears before its parent %d in BFS order %v", r, par, order)
		}
		for _, c := range tree.Children(r) {
			if tree.Parent(c) != r {
				t.Fatalf("Children(%d) lists %d but Parent(%d) = %d", r, c, c, tree.Parent(c))
			}
		}
	}
}

// TestReductionTreeClos checks the star shape a folded-Clos partition
// produces: the spine round-robin spreads leaf-spine links so every rack
// pair with a shared spine is adjacent, collapsing the tree to depth 1
// with rack 0 parenting everyone.
func TestReductionTreeClos(t *testing.T) {
	g, err := NewFoldedClos(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewReductionTree(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 1 {
		t.Fatalf("Depth() = %d, want 1 (spines make every rack adjacent to rack 0)", tree.Depth())
	}
	for r := 1; r < p.Shards(); r++ {
		if tree.Parent(r) != 0 {
			t.Fatalf("Parent(%d) = %d, want 0", r, tree.Parent(r))
		}
	}
}

// Root returns the rack the reduction converges at.
func (t *ReductionTree) Root() int { return t.root }

// Parent returns the parent rack of r, or -1 for the root.
func (t *ReductionTree) Parent(r int) int { return t.parent[r] }

// Depth returns the maximum hop count from the root to any rack: the
// reduction's critical-path length.
func (t *ReductionTree) Depth() int { return t.depth }
