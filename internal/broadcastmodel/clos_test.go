package broadcastmodel

import (
	"testing"

	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// §6, "R2C2 atop switched networks": "consider a 512 node rack connected
// using 32-port switches arranged in a two-level folded Clos topology. A
// broadcast on this topology results in only 8.7 KB of total traffic."
// The broadcast tree spans hosts and switches, so its cost is
// (vertices - 1) × 16 bytes.
func TestClosBroadcastCost(t *testing.T) {
	// 32 leaves × 16 hosts = 512 hosts; 16 spines (32-port leaves split
	// 16 down / 16 up).
	g, err := topology.NewFoldedClos(32, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 512 {
		t.Fatalf("hosts = %d", g.Nodes())
	}
	fib := topology.NewBroadcastFIB(g, 1, 1)
	var edges []topology.LinkID // every vertex's next hops on host 0's tree
	for v := range g.Vertices() {
		edges, _ = fib.AppendNextHops(edges, 0, 0, topology.NodeID(v))
	}
	tree, _ := fib.Tree(0, 0)
	bytes := len(edges) * wire.BroadcastSize
	// 512 + 32 + 16 vertices -> 559 edges × 16 B = 8944 B ≈ 8.7 KB.
	if bytes < 8600 || bytes > 9200 {
		t.Fatalf("Clos broadcast = %d bytes, want ~8.7 KB", bytes)
	}
	// Depth: host -> leaf -> spine fabric reaches everything in 4 hops.
	if tree.Depth != 4 {
		t.Fatalf("Clos broadcast depth = %d, want 4", tree.Depth)
	}
}
