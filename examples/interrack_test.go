package examples

import (
	"fmt"

	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
)

// Example_interrack shows the §6 "Inter-rack networking" direction: two
// rack-scale computers joined by direct cables (no Ethernet bridging,
// Theia-style), running one R2C2 stack across the combined fabric.
// Broadcast visibility, rate computation and source routing all work
// unchanged because none of them assume a torus: coordinate-based routing
// simply degrades to minimal-DAG routing on the combined graph.
func Example_interrack() {
	rackA, err := topology.NewTorus(4, 2) // 16 nodes
	if err != nil {
		panic(err)
	}
	rackB, err := topology.NewTorus(4, 2)
	if err != nil {
		panic(err)
	}
	// Four parallel inter-rack cables between border nodes.
	fabric, err := topology.ConnectRacks(
		[]*topology.Graph{rackA, rackB},
		[]topology.Bridge{
			{RackA: 0, NodeA: 0, RackB: 1, NodeB: 0},
			{RackA: 0, NodeA: 1, RackB: 1, NodeB: 1},
			{RackA: 0, NodeA: 2, RackB: 1, NodeB: 2},
			{RackA: 0, NodeA: 3, RackB: 1, NodeB: 3},
		})
	if err != nil {
		panic(err)
	}
	fmt.Printf("combined fabric: %d nodes, %d links, diameter %d\n",
		fabric.Nodes(), fabric.NumLinks(), fabric.Diameter())

	eng := &sim.Engine{}
	net := sim.NewNetwork(fabric, eng, sim.NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	stack := sim.NewR2C2(net, routing.NewTable(fabric), sim.R2C2Config{
		Headroom:  0.05,
		Recompute: 250 * simtime.Microsecond,
		Protocol:  routing.RPS,
	})

	// Rack B occupies nodes 16..31. Mix cross-rack and local transfers.
	cross := stack.StartFlow(5, 21, 16<<20, 1, 0)
	localA := stack.StartFlow(6, 9, 16<<20, 1, 0)
	localB := stack.StartFlow(22, 25, 16<<20, 1, 0)

	eng.Run(simtime.Second)
	show := func(name string, rec *sim.FlowRecord) {
		fmt.Printf("%-7s %2d -> %2d: %5.2f Gbps, FCT %v\n",
			name, rec.Src, rec.Dst, rec.Throughput()/1e9, rec.FCT())
	}
	show("cross", stack.Ledger()[cross])
	show("localA", stack.Ledger()[localA])
	show("localB", stack.Ledger()[localB])
	fmt.Printf("drops: %d, broadcast bytes on wire: %d\n", net.TotalDrops(), net.BcastBytesOnWire)
	// Output:
	// combined fabric: 32 nodes, 136 links, diameter 7
	// cross    5 -> 21:  9.28 Gbps, FCT 14.465ms
	// localA   6 ->  9: 18.21 Gbps, FCT 7.371ms
	// localB  22 -> 25: 18.21 Gbps, FCT 7.370ms
	// drops: 0, broadcast bytes on wire: 2976
}
