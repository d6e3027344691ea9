package examples

import (
	"fmt"

	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// Example_quickstart builds a rack fabric, starts flows under the R2C2
// stack in the packet-level simulator, and watches global visibility turn
// into rates.
func Example_quickstart() {
	// A 4x4x4 torus: 64 micro-servers, 6 links each, 10 Gbps per link —
	// a quarter-scale SeaMicro-style fabric.
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rack: %d nodes, %d directed links, diameter %d, mean distance %.2f hops\n",
		g.Nodes(), g.NumLinks(), g.Diameter(), g.MeanNodeDistance())

	eng := &sim.Engine{}
	net := sim.NewNetwork(g, eng, sim.NetConfig{
		LinkGbps:  10,
		PropDelay: 100 * simtime.Nanosecond,
	})
	stack := sim.NewR2C2(net, routing.NewTable(g), sim.R2C2Config{
		Headroom:  0.05,                      // §3.3.2: absorb not-yet-broadcast flows
		Recompute: 500 * simtime.Microsecond, // §5: the recomputation sweet spot
		Protocol:  routing.RPS,               // new flows start minimal (§3.4)
	})

	// Three flows: two sharing a bottleneck, one elsewhere.
	flows := map[string]wire.FlowID{
		"a (0->42)": stack.StartFlow(0, 42, 8<<20, 1, 0),
		"b (0->42)": stack.StartFlow(0, 42, 8<<20, 1, 0),
		"c (7->56)": stack.StartFlow(7, 56, 8<<20, 1, 0),
	}

	eng.Run(simtime.Second)

	for _, name := range []string{"a (0->42)", "b (0->42)", "c (7->56)"} {
		rec := stack.Ledger()[flows[name]]
		fmt.Printf("flow %s, %d MB: FCT %v, avg throughput %.2f Gbps\n",
			name, rec.SizeBytes>>20, rec.FCT(), rec.Throughput()/1e9)
	}

	maxQueue := 0.0
	for _, v := range net.MaxQueueSample() {
		if v > maxQueue {
			maxQueue = v
		}
	}
	fmt.Printf("broadcast control traffic: %d bytes on the wire\n", net.BcastBytesOnWire)
	fmt.Printf("packets dropped: %d (rate-based control keeps queues short)\n", net.TotalDrops())
	fmt.Printf("worst queue occupancy anywhere: %.0f bytes\n", maxQueue)
	// Output:
	// rack: 64 nodes, 384 directed links, diameter 6, mean distance 3.05 hops
	// flow a (0->42), 8 MB: FCT 2.976ms, avg throughput 22.55 Gbps
	// flow b (0->42), 8 MB: FCT 2.977ms, avg throughput 22.54 Gbps
	// flow c (7->56), 8 MB: FCT 2.975ms, avg throughput 22.56 Gbps
	// broadcast control traffic: 6048 bytes on the wire
	// packets dropped: 0 (rate-based control keeps queues short)
	// worst queue occupancy anywhere: 54000 bytes
}
