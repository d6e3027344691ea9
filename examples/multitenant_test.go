package examples

import (
	"fmt"

	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// Example_multitenant shows allocation flexibility (design goal G4). Two
// tenants share a rack; the operator gives tenant A twice tenant B's
// weight, and runs a latency-sensitive control flow at high priority. R2C2
// maps both policies onto the weight/priority fields carried in flow-event
// broadcasts (§3.3.2, "Beyond per-flow fairness").
func Example_multitenant() {
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		panic(err)
	}
	eng := &sim.Engine{}
	net := sim.NewNetwork(g, eng, sim.NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	stack := sim.NewR2C2(net, routing.NewTable(g), sim.R2C2Config{
		Headroom:  0.05,
		Recompute: 250 * simtime.Microsecond,
		Protocol:  routing.RPS,
	})

	// Tenant A (weight 2) and tenant B (weight 1) both run bulk transfers
	// between the same endpoints, so they share every bottleneck. Sizes are
	// proportional to weights so the transfers co-terminate and the
	// lifetime-average throughputs expose the 2:1 rate split.
	const bulk = 16 << 20
	tenantA := []wire.FlowID{
		stack.StartFlow(1, 62, 2*bulk, 2, 0),
		stack.StartFlow(2, 61, 2*bulk, 2, 0),
	}
	tenantB := []wire.FlowID{
		stack.StartFlow(1, 62, bulk, 1, 0),
		stack.StartFlow(2, 61, bulk, 1, 0),
	}
	// A latency-sensitive RPC at priority 1 rides over the same fabric.
	rpc := stack.StartFlow(1, 62, 64<<10, 1, 1)

	eng.Run(2 * simtime.Second)
	ledger := stack.Ledger()

	avg := func(ids []wire.FlowID) float64 {
		total := 0.0
		for _, id := range ids {
			total += ledger[id].Throughput()
		}
		return total / float64(len(ids))
	}
	a, b := avg(tenantA), avg(tenantB)
	fmt.Printf("tenant A (weight 2): %.2f Gbps average per flow\n", a/1e9)
	fmt.Printf("tenant B (weight 1): %.2f Gbps average per flow\n", b/1e9)
	fmt.Printf("A/B throughput ratio: %.2f (policy asked for 2.0)\n", a/b)
	fmt.Printf("high-priority RPC FCT: %v for %d KB (unfazed by %d MB of bulk)\n",
		ledger[rpc].FCT(), ledger[rpc].SizeBytes>>10, (6*bulk)>>20)
	// Output:
	// tenant A (weight 2): 12.33 Gbps average per flow
	// tenant B (weight 1): 6.22 Gbps average per flow
	// A/B throughput ratio: 1.98 (policy asked for 2.0)
	// high-priority RPC FCT: 83.151us for 64 KB (unfazed by 96 MB of bulk)
}
