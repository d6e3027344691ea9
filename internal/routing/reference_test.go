package routing

import "r2c2/internal/topology"

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
