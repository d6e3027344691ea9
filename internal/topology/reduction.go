package topology

import (
	"fmt"
	"sort"
)

// ReductionTree is a spanning tree over a partitioned fabric's rack-
// adjacency quotient graph: racks are vertices, and two racks are adjacent
// when any boundary link joins them — the same shortest-path BFS shape the
// §3 broadcast trees use to spread flow events, applied to the rack
// quotient instead of the node graph. Parent choice is deterministic
// (smallest adjacent rack at the previous BFS depth), so the tree is a pure
// function of the fabric.
//
// No simulator or emulator path builds one: every shard of a partitioned
// simulation runs its own recomputation tick (DESIGN.md §15). It stays only
// because the bench/ ladder's topology.partition_ms rung builds it and
// bench/ is frozen with the repository benchmark; ROADMAP item 1 (c) is the
// change that deletes it.
type ReductionTree struct {
	root     int
	parent   []int   // parent[r] = parent rack of r; -1 at the root
	children [][]int // children[r] in ascending rack order
	order    []int   // BFS order from the root; reverse it for bottom-up merges
	depth    int     // maximum hops from the root to any rack
}

// NewReductionTree derives the reduction tree of a partitioned fabric,
// rooted at rack 0. It returns an error when the quotient graph is
// disconnected (some rack pair shares no boundary link path), which a
// ConnectRacks/NewFoldedClos fabric cannot produce.
func NewReductionTree(g *Graph, p *Partition) (*ReductionTree, error) {
	S := p.Shards()
	// Rack adjacency from the boundary links, deduplicated per direction.
	adj := make([][]int, S)
	seen := make(map[[2]int32]bool)
	for _, lid := range p.BoundaryLinks() {
		l := g.Link(lid)
		a, b := p.ShardOf(l.From), p.ShardOf(l.To)
		if a == b || seen[[2]int32{a, b}] {
			continue
		}
		seen[[2]int32{a, b}] = true
		adj[a] = append(adj[a], int(b))
	}
	t := &ReductionTree{
		root:     0,
		parent:   make([]int, S),
		children: make([][]int, S),
	}
	dist := make([]int, S)
	for r := range t.parent {
		t.parent[r] = -1
		dist[r] = -1
	}
	// BoundaryLinks is in ascending link order, so adj lists arrive in no
	// particular rack order; sorting them (and each BFS level) makes every
	// rack's parent the smallest adjacent rack at the previous depth,
	// independent of link enumeration order.
	for r := range adj {
		sort.Ints(adj[r])
	}
	dist[t.root] = 0
	level := []int{t.root}
	for len(level) > 0 {
		sort.Ints(level)
		t.order = append(t.order, level...)
		var next []int
		for _, r := range level {
			for _, c := range adj[r] {
				if dist[c] >= 0 {
					continue
				}
				dist[c] = dist[r] + 1
				t.parent[c] = r
				t.children[r] = append(t.children[r], c)
				next = append(next, c)
				if dist[c] > t.depth {
					t.depth = dist[c]
				}
			}
		}
		level = next
	}
	if len(t.order) != S {
		return nil, fmt.Errorf("topology: rack quotient graph is disconnected (%d of %d racks reachable from rack %d)", len(t.order), S, t.root)
	}
	return t, nil
}
