package topology

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// refDistances is the all-pairs hop matrix, ref[a][b] from a to b and -1
// where b is unreachable, by one textbook breadth-first search per vertex
// over adjacency lists built here from the edge list: an oracle that shares
// no code with the graph's own searches.
func refDistances(g *Graph) [][]int {
	adj := make([][]NodeID, g.Vertices())
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(LinkID(id))
		adj[l.From] = append(adj[l.From], l.To)
	}
	ref := make([][]int, len(adj))
	for s := range ref {
		d := make([]int, len(adj))
		for v := range d {
			d[v] = -1
		}
		d[s] = 0
		for queue := []NodeID{NodeID(s)}; len(queue) > 0; queue = queue[1:] {
			for _, u := range adj[queue[0]] {
				if d[u] < 0 {
					d[u] = d[queue[0]] + 1
					queue = append(queue, u)
				}
			}
		}
		ref[s] = d
	}
	return ref
}

// distanceGraphs are the fabrics the distance oracle runs on: tori of radix
// 2, 3 and 8, a mesh, a folded Clos (switch vertices that are no endpoint),
// the 8-rack ring, a torus with a dead node (a vertex nothing reaches) and a
// torus missing one directed link (asymmetric distances). Several have more
// than 64 endpoints, and not a multiple of 64, so the 64-source sweep runs
// full and partial batches.
func distanceGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	must := func(g *Graph, err error) *Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	torus5 := mustTorus(t, 5, 3)
	deadNode, _, err := torus5.WithoutLinksAndNodes(nil, marked(torus5.Vertices(), NodeID(17)))
	if err != nil {
		t.Fatal(err)
	}
	oneWay, _, err := torus5.WithoutLinksAndNodes(marked(torus5.NumLinks(), torus5.Out(40)[2]), nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{
		"torus 2^3":    mustTorus(t, 2, 3),
		"torus 3^3":    mustTorus(t, 3, 3),
		"torus 8^3":    mustTorus(t, 8, 3),
		"mesh 5^3":     must(NewMesh(5, 3)),
		"clos 5x3x16":  must(NewFoldedClos(5, 3, 16)),
		"8-rack ring":  ring(t, 8),
		"dead node":    deadNode,
		"one-way link": oneWay,
	}
}

// Dist, DistancesTo, MinimalSuccessors, Diameter and MeanNodeDistance
// against the reference matrix on every distance graph: Dist from every
// vertex of the small graphs and every fifth of the 512-vertex ones, to every
// vertex; the rest on every vertex pair.
func TestDistancesMatchReference(t *testing.T) {
	for name, g := range distanceGraphs(t) {
		ref := refDistances(g)
		diameter, sum, pairs := 0, 0, 0
		for a := range ref {
			for b, d := range ref[a] {
				if a%(1+len(ref)/128) == 0 {
					if got := g.Dist(NodeID(a), NodeID(b)); got != d {
						t.Fatalf("%s: Dist(%d, %d) = %d, reference %d", name, a, b, got, d)
					}
				}
				if a < g.Nodes() && b < g.Nodes() && d > 0 {
					diameter, sum, pairs = max(diameter, d), sum+d, pairs+1
				}
			}
		}
		if got := g.Diameter(); got != diameter {
			t.Errorf("%s: Diameter() = %d, reference %d", name, got, diameter)
		}
		if got, want := g.MeanNodeDistance(), float64(sum)/float64(pairs); got != want {
			t.Errorf("%s: MeanNodeDistance() = %v, reference %v", name, got, want)
		}
		for dst := range ref {
			col := g.DistancesTo(NodeID(dst))
			succ := g.MinimalSuccessors(NodeID(dst))
			for v := range ref {
				if int(col[v]) != ref[v][dst] {
					t.Fatalf("%s: DistancesTo(%d)[%d] = %d, reference %d", name, dst, v, col[v], ref[v][dst])
				}
				var want []LinkID
				for _, lid := range g.Out(NodeID(v)) {
					if ref[v][dst] > 0 && ref[g.Link(lid).To][dst] == ref[v][dst]-1 {
						want = append(want, lid)
					}
				}
				checkMaskRow(t, fmt.Sprintf("%s: DAG to %d", name, dst), succ, NodeID(v), want)
			}
		}
	}
}

// A Graph's searches share pooled scratch and its diameter is measured once,
// on first use: goroutines that read distances from one fresh graph at once
// (the sharded simulator's workers, the emulator's nodes) all see the
// reference. Run with -race.
func TestDistancesConcurrent(t *testing.T) {
	g := ring(t, 8)
	ref := refDistances(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if d := g.Diameter(); d != slices.Max(slices.Concat(ref...)) {
				t.Errorf("worker %d: Diameter() = %d", w, d)
			}
			for i := 0; i < 64; i++ {
				a, b := NodeID((w*64+i*7)%g.Nodes()), NodeID((w*31+i*13)%g.Nodes())
				if got := g.Dist(a, b); got != ref[a][b] {
					t.Errorf("worker %d: Dist(%d, %d) = %d, reference %d", w, a, b, got, ref[a][b])
				}
				if col := g.DistancesTo(b); int(col[a]) != ref[a][b] {
					t.Errorf("worker %d: DistancesTo(%d)[%d] = %d, reference %d", w, b, a, col[a], ref[a][b])
				}
				if succ := g.MinimalSuccessors(b); (succ.Count(a) > 0) != (a != b) {
					t.Errorf("worker %d: %d has %d successors towards %d", w, a, succ.Count(a), b)
				}
			}
		}(w)
	}
	wg.Wait()
}

// checkAdjacency holds Out, In, Port and LinkBetween to the edge list: each
// vertex lists its links in link-ID order, which is the order their edges
// had in the list the graph was built from; and the CSR arrays say the same.
func checkAdjacency(t *testing.T, name string, g *Graph) {
	t.Helper()
	out, in := make([][]LinkID, g.Vertices()), make([][]LinkID, g.Vertices())
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(LinkID(id))
		out[l.From] = append(out[l.From], LinkID(id))
		in[l.To] = append(in[l.To], LinkID(id))
		if got, ok := g.LinkBetween(l.From, l.To); !ok || got != LinkID(id) {
			t.Fatalf("%s: LinkBetween(%d, %d) = %d, %v; want %d", name, l.From, l.To, got, ok, id)
		}
	}
	for v := range out {
		if got := g.Out(NodeID(v)); !slices.Equal(got, out[v]) {
			t.Fatalf("%s: Out(%d) = %v, want %v", name, v, got, out[v])
		}
		if got := g.In(NodeID(v)); !slices.Equal(got, in[v]) {
			t.Fatalf("%s: In(%d) = %v, want %v", name, v, got, in[v])
		}
		for p, lid := range out[v] {
			o := int(g.outOff[v]) + p
			if g.Port(lid) != p || g.outLinks[o] != lid || g.outTo[o] != g.Link(lid).To {
				t.Fatalf("%s: port %d of %d: Port %d, CSR link %d to %d; want link %d to %d",
					name, p, v, g.Port(lid), g.outLinks[o], g.outTo[o], lid, g.Link(lid).To)
			}
		}
		for i, lid := range in[v] {
			if j := int(g.inOff[v]) + i; g.inLinks[j] != lid || g.inFrom[j] != g.Link(lid).From {
				t.Fatalf("%s: in-link %d of %d: CSR link %d from %d; want link %d from %d",
					name, i, v, g.inLinks[j], g.inFrom[j], lid, g.Link(lid).From)
			}
		}
		if g.Degree(NodeID(v)) != len(out[v]) || g.outOff[v+1]-g.outOff[v] != int32(len(out[v])) ||
			g.inOff[v+1]-g.inOff[v] != int32(len(in[v])) {
			t.Fatalf("%s: vertex %d: CSR degrees disagree with the edge list", name, v)
		}
	}
}

// Port order is part of a graph's meaning (paths are encoded as port
// numbers, and tie-breaks follow them), so it is pinned here: NewGraph keeps
// edge-list order, including for an edge list that is not grouped by tail,
// and NewTorus lays out dimension 0 positive, dimension 0 negative,
// dimension 1 positive, and so on.
func TestPortOrder(t *testing.T) {
	edges := []Link{{2, 0}, {0, 1}, {3, 2}, {0, 3}, {1, 0}, {2, 3}, {0, 2}, {3, 0}, {1, 2}, {2, 1}}
	g, err := NewGraph(KindMesh, 4, 4, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkAdjacency(t, "edge list", g)
	if got, want := g.Out(0), []LinkID{1, 3, 6}; !slices.Equal(got, want) {
		t.Fatalf("edge list: Out(0) = %v, want %v", got, want)
	}
	if got, want := g.In(2), []LinkID{2, 6, 8}; !slices.Equal(got, want) {
		t.Fatalf("edge list: In(2) = %v, want %v", got, want)
	}
	for name, g := range distanceGraphs(t) {
		checkAdjacency(t, name, g)
	}
	for _, k := range []int{2, 3, 5} {
		g := mustTorus(t, k, 3)
		for v := 0; v < g.Nodes(); v++ {
			c := g.Coord(NodeID(v))
			p := 0
			for d := range c {
				for _, step := range []int{1, k - 1}[:min(2, k-1)] {
					want := slices.Clone(c)
					want[d] = (c[d] + step) % k
					if to := g.Link(g.Out(NodeID(v))[p]).To; to != g.NodeAt(want) {
						t.Fatalf("torus %d^3: port %d of %v leads to %v, want %v", k, p, c, g.Coord(to), want)
					}
					p++
				}
			}
			if p != g.Degree(NodeID(v)) {
				t.Fatalf("torus %d^3: node %v has %d ports, want %d", k, c, g.Degree(NodeID(v)), p)
			}
		}
	}
}

// benchGraphs are the fabrics the distance benchmarks run on: the
// paper-scale torus and the sharded benchmark's 8-rack ring, 512 nodes each.
var benchGraphs = []struct {
	name  string
	build func(testing.TB) *Graph
}{
	{"torus8^3", func(b testing.TB) *Graph { return mustTorus(b, 8, 3) }},
	{"ring8x64", func(b testing.TB) *Graph { return ring(b, 8) }},
}

// One destination's minimal-route DAG per op, destinations in turn.
func BenchmarkMinimalSuccessors(b *testing.B) {
	for _, c := range benchGraphs {
		b.Run(c.name, func(b *testing.B) {
			g := c.build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.MinimalSuccessors(NodeID(i % g.Nodes()))
			}
		})
	}
}

// One source's four broadcast trees per op, sources in turn.
func BenchmarkBroadcastTrees(b *testing.B) {
	for _, c := range benchGraphs {
		b.Run(c.name, func(b *testing.B) {
			g := c.build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buildBroadcastTrees(g, NodeID(i%g.Nodes()), 4, int64(i), new(treeScratch))
			}
		})
	}
}

// A fresh graph's diameter per op: the graph is built inside the op,
// because a graph measures its distances only once.
func BenchmarkDiameter(b *testing.B) {
	for _, c := range benchGraphs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.build(b).Diameter() <= 0 {
					b.Fatal("no diameter")
				}
			}
		})
	}
}
