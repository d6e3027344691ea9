package routing

import (
	"math"
	"testing"

	"r2c2/internal/topology"
)

// refDistances is the all-pairs hop matrix, ref[a][b] from a to b and -1
// where b is unreachable, by one textbook breadth-first search per vertex
// over adjacency lists built here from the edge list: an oracle that shares
// no code with the topology package's searches.
func refDistances(g *topology.Graph) [][]int {
	adj := make([][]topology.NodeID, g.Vertices())
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(topology.LinkID(id))
		adj[l.From] = append(adj[l.From], l.To)
	}
	ref := make([][]int, len(adj))
	for s := range ref {
		d := make([]int, len(adj))
		for v := range d {
			d[v] = -1
		}
		d[s] = 0
		for queue := []topology.NodeID{topology.NodeID(s)}; len(queue) > 0; queue = queue[1:] {
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

// enumerate walks every minimal path from v to dst, carrying the
// probability of per-hop uniform spraying, and accumulates exact per-link
// probabilities — an independent reference for the φ dynamic program.
func enumerate(g *topology.Graph, succ *topology.PortMasks, v, dst topology.NodeID,
	prob float64, acc map[topology.LinkID]float64) {
	if v == dst {
		return
	}
	n := succ.Count(v)
	share := prob / float64(n)
	for i := range n {
		lid := succ.Pick(v, i)
		acc[lid] += share
		enumerate(g, succ, g.Link(lid).To, dst, share, acc)
	}
}

// The φ DP must agree exactly with brute-force path enumeration, on a torus
// and on a Clos whose 14-port leaves need two-byte successor masks.
func TestPhiRPSMatchesEnumeration(t *testing.T) {
	g := torus(t, 4, 2)
	clos, err := topology.NewFoldedClos(4, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		g     *topology.Graph
		pairs [][2]topology.NodeID
	}{
		{g, [][2]topology.NodeID{
			{0, 1},                     // neighbours
			{0, g.NodeAt([]int{1, 1})}, // 2-hop corner
			{0, g.NodeAt([]int{2, 1})}, // 3 hops
			{0, g.NodeAt([]int{2, 2})}, // 4 hops, ties in both dims
			{5, g.NodeAt([]int{3, 2})}, // off-origin
		}},
		{clos, [][2]topology.NodeID{
			{0, 11},  // same leaf
			{0, 12},  // next leaf, through either spine
			{47, 13}, // last host to another leaf
		}},
	} {
		tab := NewTable(c.g)
		for _, pair := range c.pairs {
			src, dst := pair[0], pair[1]
			acc := make(map[topology.LinkID]float64)
			enumerate(c.g, c.g.MinimalSuccessors(dst), src, dst, 1.0, acc)
			phi := tab.Phi(RPS, src, dst)
			if len(phi.Links) != len(acc) {
				t.Fatalf("%v %d->%d: DP touches %d links, enumeration %d", c.g.Kind(), src, dst, len(phi.Links), len(acc))
			}
			for i, lid := range phi.Links {
				if math.Abs(phi.Frac[i]-acc[lid]) > 1e-12 {
					t.Fatalf("%v %d->%d link %d: DP %v, enumeration %v", c.g.Kind(), src, dst, lid, phi.Frac[i], acc[lid])
				}
			}
		}
	}
}

// VLB φ must equal brute-force two-phase enumeration over every waypoint.
func TestPhiVLBMatchesEnumeration(t *testing.T) {
	g := torus(t, 3, 2)
	tab := NewTable(g)
	src, dst := topology.NodeID(0), topology.NodeID(5)
	want := make(map[topology.LinkID]float64)
	n := float64(g.Nodes())
	for w := 0; w < g.Nodes(); w++ {
		wp := topology.NodeID(w)
		phase := make(map[topology.LinkID]float64)
		if wp != src {
			enumerate(g, g.MinimalSuccessors(wp), src, wp, 1.0, phase)
		}
		if wp != dst {
			enumerate(g, g.MinimalSuccessors(dst), wp, dst, 1.0, phase)
		}
		for lid, f := range phase {
			want[lid] += f / n
		}
	}
	phi := tab.Phi(VLB, src, dst)
	dense := make(map[topology.LinkID]float64)
	for i, lid := range phi.Links {
		dense[lid] = phi.Frac[i]
	}
	for lid, f := range want {
		if math.Abs(dense[lid]-f) > 1e-12 {
			t.Fatalf("link %d: DP %v, enumeration %v", lid, dense[lid], f)
		}
	}
	for lid := range dense {
		if _, ok := want[lid]; !ok && dense[lid] > 1e-12 {
			t.Fatalf("DP uses link %d that enumeration never visits", lid)
		}
	}
}
