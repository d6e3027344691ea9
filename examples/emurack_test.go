package examples

import (
	"fmt"
	"time"

	"r2c2/internal/emu"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
)

// Example_emurack runs a live emulated rack (the in-process Maze substitute
// of §4.1) end to end. Every node runs the full R2C2 user-space stack —
// broadcast trees, traffic-matrix views, periodic rate computation and
// per-flow token buckets — over goroutine-and-channel virtual links, with
// packets in the real wire format forwarded zero-copy. The rack runs in
// wall-clock time, so the example prints only what does not depend on the
// host: which flows complete. A lone flow gets the fabric to itself; then
// three flows share a bottleneck, and broadcast-driven visibility splits
// it with no probing and no switch support. The emulator has no
// retransmission, so a dropped packet would leave its flow incomplete.
func Example_emurack() {
	g, err := topology.NewTorus(4, 2) // the paper's Maze deployment: 4x4 2D torus
	if err != nil {
		panic(err)
	}
	rack, err := emu.New(emu.Config{
		Graph:     g,
		LinkMbps:  200, // scaled-down virtual links (Maze used 5 Gbps on RDMA)
		Headroom:  0.05,
		Recompute: 2 * time.Millisecond,
		Protocol:  routing.RPS,
		Seed:      42,
	})
	if err != nil {
		panic(err)
	}
	rack.Start()
	defer rack.Stop()
	fmt.Printf("emulated rack up: %d nodes, %d virtual links at 200 Mbps\n", g.Nodes(), g.NumLinks())

	run := func(name string, n int) {
		var flows []*emu.Flow
		for i := 0; i < n; i++ {
			f, err := rack.StartFlow(0, 5, 2<<20, 1, 0)
			if err != nil {
				panic(err)
			}
			flows = append(flows, f)
		}
		for _, f := range flows {
			if err := f.Wait(time.Minute); err != nil {
				panic(err)
			}
		}
		fmt.Printf("%s: %d x 2 MB from node 0 to node 5 completed\n", name, n)
	}
	run("solo flow", 1)
	run("shared flows", 3)
	// Output:
	// emulated rack up: 16 nodes, 64 virtual links at 200 Mbps
	// solo flow: 1 x 2 MB from node 0 to node 5 completed
	// shared flows: 3 x 2 MB from node 0 to node 5 completed
}
