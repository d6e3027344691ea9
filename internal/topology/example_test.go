package topology_test

import (
	"fmt"

	"r2c2/internal/topology"
)

// The SeaMicro-sized fabric of §5.2: a 512-node 3D torus where each node
// has six links and the average flow travels six hops.
func ExampleNewTorus() {
	g, _ := topology.NewTorus(8, 3)
	fmt.Printf("nodes: %d\n", g.Nodes())
	fmt.Printf("links per node: %d\n", g.Degree(0))
	fmt.Printf("mean distance: %.0f hops\n", g.MeanNodeDistance())
	// Output:
	// nodes: 512
	// links per node: 6
	// mean distance: 6 hops
}

// One flow event costs (n-1) tree edges × 16 bytes — about 8 KB across
// the whole 512-node rack (§3.2).
func ExampleNewBroadcastFIB() {
	g, _ := topology.NewTorus(8, 3)
	fib := topology.NewBroadcastFIB(g, 1, 42)
	var edges []topology.LinkID // every vertex's next hops on node 0's tree
	for v := range g.Vertices() {
		edges, _ = fib.AppendNextHops(edges, 0, 0, topology.NodeID(v))
	}
	tree, _ := fib.Tree(0, 0)
	fmt.Printf("edges: %d\n", len(edges))
	fmt.Printf("bytes per broadcast: %d\n", len(edges)*16)
	fmt.Printf("broadcast reaches everyone within %d hops\n", tree.Depth)
	// Output:
	// edges: 511
	// bytes per broadcast: 8176
	// broadcast reaches everyone within 12 hops
}
