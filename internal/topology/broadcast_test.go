package topology

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// Every broadcast tree must be a spanning tree whose nodes sit at their BFS
// depth (minimal broadcast time, §3.2).
func TestBroadcastTreeSpanningShortest(t *testing.T) {
	for _, g := range testGraphs(t) {
		ref := refDistances(g)
		for src := 0; src < g.Nodes(); src += 5 {
			trees := fibTrees(g, NodeID(src), 4, 42)
			for id, tree := range trees {
				if n := treeEdges(tree); n != g.Vertices()-1 {
					t.Fatalf("%v src=%d tree=%d: %d edges, want %d",
						g.Kind(), src, id, n, g.Vertices()-1)
				}
				depth := walkTree(t, g, ref[src], tree)
				if depth != tree.Depth {
					t.Fatalf("%v: recorded depth %d, walked depth %d", g.Kind(), tree.Depth, depth)
				}
				// Minimal broadcast time: depth equals eccentricity of src.
				ecc := slices.Max(ref[src])
				if depth != ecc {
					t.Fatalf("%v src=%d: tree depth %d != eccentricity %d", g.Kind(), src, depth, ecc)
				}
			}
		}
	}
}

// fibTrees returns src's count trees, read from a FIB.
func fibTrees(g *Graph, src NodeID, count int, seed int64) []*BroadcastTree {
	fib := NewBroadcastFIB(g, count, seed)
	trees := make([]*BroadcastTree, count)
	for i := range trees {
		trees[i], _ = fib.Tree(src, uint8(i))
	}
	return trees
}

// treeChildren returns the links v forwards a broadcast on, in port order.
func treeChildren(tree *BroadcastTree, v NodeID) []LinkID { return tree.kids.AppendLinks(nil, v) }

// treeEdges counts the tree's edges: n-1 for a spanning tree of n vertices.
func treeEdges(tree *BroadcastTree) int {
	n := 0
	for _, b := range tree.kids.bits {
		n += bits.OnesCount8(b)
	}
	return n
}

// walkTree delivers a copy down the tree and checks each vertex is reached
// exactly once, at its distance from the root (dist, the reference's row);
// it returns the max depth reached.
func walkTree(t *testing.T, g *Graph, dist []int, tree *BroadcastTree) int {
	t.Helper()
	depthOf := make([]int, g.Vertices())
	for i := range depthOf {
		depthOf[i] = -1
	}
	depthOf[tree.Root] = 0
	queue := []NodeID{tree.Root}
	maxDepth := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, lid := range treeChildren(tree, v) {
			l := g.Link(lid)
			if l.From != v {
				t.Fatalf("tree child link %v not rooted at %d", l, v)
			}
			if depthOf[l.To] != -1 {
				t.Fatalf("vertex %d receives two copies", l.To)
			}
			depthOf[l.To] = depthOf[v] + 1
			if want := dist[l.To]; depthOf[l.To] != want {
				t.Fatalf("vertex %d at tree depth %d, BFS distance %d", l.To, depthOf[l.To], want)
			}
			if depthOf[l.To] > maxDepth {
				maxDepth = depthOf[l.To]
			}
			queue = append(queue, l.To)
		}
	}
	for v, d := range depthOf {
		if d == -1 && dist[v] >= 0 {
			t.Fatalf("reachable vertex %d never receives the broadcast", v)
		}
	}
	return maxDepth
}

func TestBroadcastTreesDiffer(t *testing.T) {
	g, err := NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	trees := fibTrees(g, 0, 8, 1)
	distinct := false
	for i := 1; i < len(trees) && !distinct; i++ {
		for v := 0; v < g.Vertices() && !distinct; v++ {
			distinct = !slices.Equal(treeChildren(trees[0], NodeID(v)), treeChildren(trees[i], NodeID(v)))
		}
	}
	if !distinct {
		t.Error("8 randomised broadcast trees are all identical; load balancing impossible")
	}
}

func TestBroadcastFIB(t *testing.T) {
	g, err := NewTorus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	fib := NewBroadcastFIB(g, 3, 7)
	for src := 0; src < g.Nodes(); src++ {
		if n := fib.TreesPerSource(NodeID(src)); n != 3 {
			t.Fatalf("TreesPerSource(%d) = %d, want 3", src, n)
		}
		for treeID := uint8(0); treeID < 3; treeID++ {
			// Simulate forwarding via FIB lookups; count deliveries.
			delivered := map[NodeID]bool{NodeID(src): true}
			queue := []NodeID{NodeID(src)}
			for len(queue) > 0 {
				at := queue[0]
				queue = queue[1:]
				hops, ok := fib.NextHops(NodeID(src), treeID, at)
				if !ok {
					t.Fatalf("FIB miss for src=%d tree=%d at=%d", src, treeID, at)
				}
				for _, lid := range hops {
					to := g.Link(lid).To
					if delivered[to] {
						t.Fatalf("duplicate delivery to %d", to)
					}
					delivered[to] = true
					queue = append(queue, to)
				}
			}
			if len(delivered) != g.Nodes() {
				t.Fatalf("src=%d tree=%d delivered to %d nodes, want %d", src, treeID, len(delivered), g.Nodes())
			}
		}
	}
	if _, ok := fib.NextHops(0, 99, 0); ok {
		t.Error("FIB hit for unknown tree ID")
	}
	if _, ok := fib.Tree(0, 99); ok {
		t.Error("Tree hit for unknown tree ID")
	}
}

// Broadcast cost accounting from §3.2: a 512-node rack broadcast costs
// (n-1) * 16 bytes = ~8 KB of total traffic.
func TestBroadcastCost512(t *testing.T) {
	g, err := NewTorus(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	bytes := treeEdges(fibTrees(g, 0, 1, 1)[0]) * 16
	if bytes != 511*16 {
		t.Fatalf("broadcast bytes = %d, want %d", bytes, 511*16)
	}
}

func TestBuildBroadcastTreesPanicsOnBadCount(t *testing.T) {
	g, err := NewTorus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for count=0")
		}
	}()
	buildBroadcastTrees(g, 0, 0, 1, new(treeScratch))
}

// The sharded simulator's workers and the emulator's node goroutines share
// one FIB: hits, misses (unknown tree, out-of-range source) and racing
// first builds from 8 goroutines must agree with a FIB built eagerly on one
// goroutine, and every goroutine must see the same tree objects — a source
// is built exactly once, and a miss on a built source never rebuilds it.
// Run with -race.
func TestBroadcastFIBConcurrent(t *testing.T) {
	g, err := NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const trees, seed, workers = 3, 7, 8
	eager := NewBroadcastFIB(g, trees, seed)
	for src := 0; src < g.Nodes(); src++ {
		eager.Tree(NodeID(src), 0)
	}
	fib := NewBroadcastFIB(g, trees, seed)
	seen := make([][]*BroadcastTree, workers) // per worker: tree object per <src, id>
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen[w] = make([]*BroadcastTree, g.Nodes()*trees)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				src := NodeID(rng.Intn(g.Nodes()+2) - 1) // -1 and Nodes() miss
				id := uint8(rng.Intn(trees + 2))         // trees, trees+1 miss
				at := NodeID(rng.Intn(g.Nodes()))
				got, ok := fib.NextHops(src, id, at)
				want, wantOK := eager.NextHops(src, id, at)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Errorf("NextHops(%d, %d, %d) = %v, %v; eager FIB says %v, %v", src, id, at, got, ok, want, wantOK)
					return
				}
				if ok {
					seen[w][int(src)*trees+int(id)], _ = fib.Tree(src, id)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range seen {
		for i, tree := range seen[w] {
			if final, _ := fib.Tree(NodeID(i/trees), uint8(i%trees)); tree != nil && tree != final {
				t.Fatalf("worker %d was served a tree object for src %d tree %d that the FIB no longer holds: the source was built twice", w, i/trees, i%trees)
			}
		}
	}
}

// refBuildOneTree is the per-tree construction buildBroadcastTrees used before
// it shared one parent search among a source's trees: every tree repeats the
// search for itself and keeps a child slice per vertex. Kept as the oracle —
// the shared-search build must draw from rng exactly as this does. dist is
// the reference distances from src.
func refBuildOneTree(g *Graph, src NodeID, dist []int, rng *rand.Rand) (children [][]LinkID, depth int) {
	children = make([][]LinkID, g.Vertices())
	for v := 0; v < g.Vertices(); v++ {
		dv := dist[v]
		if NodeID(v) == src || dv < 0 {
			continue // the root, and unreachable vertices, have no parent
		}
		if dv > depth {
			depth = dv
		}
		var candidates []LinkID
		for _, lid := range g.In(NodeID(v)) {
			if dist[g.Link(lid).From] == dv-1 {
				candidates = append(candidates, lid)
			}
		}
		pick := candidates[rng.Intn(len(candidates))]
		p := g.Link(pick).From
		children[p] = append(children[p], pick)
	}
	return children, depth
}

// sortedLinks returns a sorted copy of links.
func sortedLinks(links []LinkID) []LinkID {
	links = slices.Clone(links)
	slices.Sort(links)
	return links
}

// TestBroadcastTreesMatchPerTreeReference holds the mask trees to the
// per-tree reference — every vertex's child set in every tree of every
// source — on the paper-scale torus, the sharded benchmark's rack ring, and
// a degraded torus with a dead node (a vertex no tree reaches). The trees
// list a vertex's children in port order and the reference in child-vertex
// order, so the sets are compared sorted: the order is result-neutral,
// because the event wheel breaks ties by link.
func TestBroadcastTreesMatchPerTreeReference(t *testing.T) {
	torus512, err := NewTorus(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	degraded, _, err := mustTorus(t, 4, 3).WithoutLinksAndNodes(nil, marked(64, NodeID(21)))
	if err != nil {
		t.Fatal(err)
	}
	const trees, seed = 4, 11
	for name, g := range map[string]*Graph{"torus 8x8x8": torus512, "8-rack ring": ring(t, 8), "dead node": degraded} {
		fib := NewBroadcastFIB(g, trees, seed) // one scratch across all sources, as in a run
		ref := refDistances(g)
		for src := 0; src < g.Nodes(); src++ {
			rng := rand.New(rand.NewSource(seed + int64(src)))
			for id := 0; id < trees; id++ {
				want, depth := refBuildOneTree(g, NodeID(src), ref[src], rng)
				got, ok := fib.Tree(NodeID(src), uint8(id))
				if !ok || got.Root != NodeID(src) || got.Depth != depth {
					t.Fatalf("%s src %d tree %d: got %+v (ok=%v), want depth %d", name, src, id, got, ok, depth)
				}
				edges := 0
				for v := range want {
					if kids, ref := sortedLinks(treeChildren(got, NodeID(v))), sortedLinks(want[v]); !slices.Equal(kids, ref) {
						t.Fatalf("%s src %d tree %d: children of %d = %v, reference %v", name, src, id, v, kids, ref)
					}
					edges += len(want[v])
				}
				if n := treeEdges(got); n != edges {
					t.Fatalf("%s src %d tree %d: %d edges, reference %d", name, src, id, n, edges)
				}
			}
		}
	}
}

// AppendLinks appends v's set to buf in port order and returns the extended
// slice.
func (m *PortMasks) AppendLinks(buf []LinkID, v NodeID) []LinkID {
	return appendPorts(buf, m.out[m.off[v]:m.off[v+1]], m.row(v))
}

// checkMaskRow holds v's row of m to want, listed in port order: Count, every
// Pick, and AppendLinks onto a non-empty buffer.
func checkMaskRow(t *testing.T, what string, m *PortMasks, v NodeID, want []LinkID) {
	t.Helper()
	if n := m.Count(v); n != len(want) {
		t.Fatalf("%s: Count(%d) = %d, want %d (%v)", what, v, n, len(want), want)
	}
	for i, lid := range want {
		if got := m.Pick(v, i); got != lid {
			t.Fatalf("%s: Pick(%d, %d) = %d, want %d (%v)", what, v, i, got, lid, want)
		}
	}
	prefix := []LinkID{-1}
	if got := m.AppendLinks(prefix, v); !slices.Equal(got, append(prefix, want...)) {
		t.Fatalf("%s: AppendLinks(%d) = %v, want %v after the prefix", what, v, got, want)
	}
}

// TreesPerSource reports how many trees exist for src.
func (f *BroadcastFIB) TreesPerSource(src NodeID) int {
	if int(src) < 0 || int(src) >= len(f.slots) {
		return 0
	}
	return f.treesPerSource
}
