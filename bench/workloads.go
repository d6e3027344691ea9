package main

import (
	"fmt"
	"runtime"

	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// Every fabric in the benchmark: 10 Gbps links, 100 ns per hop, RPS, 5 %
// headroom, default 1 MB port queues.
var fabric = sim.NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond}

const headroom = 0.05

// subSeed derives the seed of one consumer from the command's --seed, so
// that --seed is the only source of randomness and no two consumers share a
// stream.
func subSeed(seed int64, consumer int64) int64 { return seed*1_000_003 + consumer }

const (
	seedTraffic = iota + 1
	seedR2C2
	seedPFQ
	seedEmu
	seedLadder
)

// Flow counts, sized on a 2-vCPU box (go1.24.0) so that one sim run takes
// about 1.5 s and one emu batch about 1 s: at least five sim reps and nine
// emu reps fit in run_seconds. Pareto sizes are capped so that every flow
// completes inside MaxTime on every seed and one giant flow does not decide
// how much work a seed offers.
const (
	churnFlows       = 1500
	bulkFlows        = 1600
	ctrlFlows        = 700
	shardFlows       = 320
	baselineFlows    = 16000
	paretoMaxBytes   = 2 << 20
	emuBulkFlows     = 900
	emuChurnFlows    = 24000
	emuWarmupFlows   = 50
	emuBulkFlowBytes = 1 << 20
	emuChurnBytes    = 2 << 10
)

// simPlan is a sim workload's generated inputs: the arrival list and the
// sim.Run calls made on it.
type simPlan struct {
	g       *topology.Graph
	runs    []sim.RunConfig
	workers int // Shards of the sharded run, 1 otherwise
}

// emuPlan is an emulator workload's generated inputs.
type emuPlan struct {
	g         *topology.Graph
	linkMbps  float64
	flows     int // total, over all clients
	flowBytes int64
	clients   int
	seed      int64
}

// workload is one set of inputs the benchmark runs. Exactly one of sim and
// emu is set; both make the inputs from the seed, and count scales a flow
// count (identity in the benchmark, 1/20 in the self-test).
type workload struct {
	name  string
	why   string
	graph func() (*topology.Graph, error)
	sim   func(g *topology.Graph, seed int64, count func(int) int) *simPlan
	emu   func(g *topology.Graph, seed int64, count func(int) int) *emuPlan
}

func torus(k, dims int) func() (*topology.Graph, error) {
	return func() (*topology.Graph, error) { return topology.NewTorus(k, dims) }
}

// rackRing is BenchmarkShardedEventThroughput's fabric: 8 racks of 4-ary
// 3-cubes joined in a ring by two bridges per adjacent pair.
func rackRing() (*topology.Graph, error) {
	const racks = 8
	subs := make([]*topology.Graph, racks)
	for i := range subs {
		g, err := topology.NewTorus(4, 3)
		if err != nil {
			return nil, err
		}
		subs[i] = g
	}
	var bridges []topology.Bridge
	for i := 0; i < racks; i++ {
		j := (i + 1) % racks
		bridges = append(bridges,
			topology.Bridge{RackA: i, RackB: j, NodeA: 0, NodeB: 7},
			topology.Bridge{RackA: i, RackB: j, NodeA: 11, NodeB: 4})
	}
	return topology.ConnectRacks(subs, bridges)
}

func poisson(g *topology.Graph, seed int64, tau simtime.Time, flows int) trafficgen.PoissonConfig {
	return trafficgen.PoissonConfig{
		Nodes: g.Nodes(), MeanInterval: tau, Count: flows,
		MaxFlowBytes: paretoMaxBytes, Seed: subSeed(seed, seedTraffic),
	}
}

// r2c2Run is one R2C2 run over the benchmark's fabric.
func r2c2Run(g *topology.Graph, seed int64, rho, maxTime simtime.Time, arr []trafficgen.Arrival) sim.RunConfig {
	return sim.RunConfig{
		Graph: g, Net: fabric, Transport: sim.TransportR2C2, Arrivals: arr, MaxTime: maxTime,
		R2C2: sim.R2C2Config{Headroom: headroom, Recompute: rho, Protocol: routing.RPS, Seed: subSeed(seed, seedR2C2)},
	}
}

// emuRack is the emulated rack of both emu workloads: links fast enough
// that the token buckets never sleep and the CPU is the bottleneck, and a
// closed loop of at most two clients, no more than the box has CPUs.
func emuRack(g *topology.Graph, seed int64, flows int, flowBytes int64) *emuPlan {
	clients := 2
	if runtime.NumCPU() < 2 {
		clients = 1
	}
	return &emuPlan{g: g, linkMbps: 100_000, flows: flows, flowBytes: flowBytes,
		clients: clients, seed: subSeed(seed, seedEmu)}
}

var workloads = []workload{
	{
		name:  "churn512",
		why:   "512-node Fig. 10 point, ~95% short flows: two 511-node floods per flow, so broadcast forwarding, View.Apply and the wheel do the work",
		graph: torus(8, 3),
		sim: func(g *topology.Graph, seed int64, count func(int) int) *simPlan {
			arr := trafficgen.Poisson(poisson(g, seed, simtime.Microsecond, count(churnFlows)))
			return &simPlan{g: g, workers: 1, runs: []sim.RunConfig{
				r2c2Run(g, seed, 500*simtime.Microsecond, 40*simtime.Millisecond, arr)}}
		},
	},
	{
		name:  "bulk64",
		why:   "64 nodes, 1 MiB flows at ~200 Gbps offered: the per-packet data path (pacing, AppendPath, port, reorder) does nearly all the work",
		graph: torus(4, 3),
		sim: func(g *topology.Graph, seed int64, count func(int) int) *simPlan {
			arr := trafficgen.FixedSize(poisson(g, seed, 40*simtime.Microsecond, count(bulkFlows)), 1<<20)
			return &simPlan{g: g, workers: 1, runs: []sim.RunConfig{
				r2c2Run(g, seed, 500*simtime.Microsecond, 200*simtime.Millisecond, arr)}}
		},
	},
	{
		name:  "ctrl512",
		why:   "512 nodes recomputing every 10us at light load: the allocator runs ~1,200 times on slowly changing views, its largest share on a seed-steady run",
		graph: torus(8, 3),
		sim: func(g *topology.Graph, seed int64, count func(int) int) *simPlan {
			arr := trafficgen.FixedSize(poisson(g, seed, 8*simtime.Microsecond, count(ctrlFlows)), 256<<10)
			return &simPlan{g: g, workers: 1, runs: []sim.RunConfig{
				r2c2Run(g, seed, 10*simtime.Microsecond, 40*simtime.Millisecond, arr)}}
		},
	},
	{
		name:  "shard8x64",
		why:   "8 racks x 64 nodes on the sharded engine: epoch barrier, boundary drain and per-shard full-graph builds dominate, not the event loop",
		graph: rackRing,
		sim: func(g *topology.Graph, seed int64, count func(int) int) *simPlan {
			arr := trafficgen.FixedSize(poisson(g, seed, 50*simtime.Microsecond, count(shardFlows)), 128<<10)
			run := r2c2Run(g, seed, 100*simtime.Microsecond, 50*simtime.Millisecond, arr)
			run.R2C2.Reliable, run.R2C2.RTO = true, 300*simtime.Microsecond
			run.Shards = runtime.NumCPU()
			if run.Shards > 4 {
				run.Shards = 4
			}
			return &simPlan{g: g, workers: run.Shards, runs: []sim.RunConfig{run}}
		},
	},
	{
		name:  "baselines64",
		why:   "TCP then PFQ on the same Engine and Network: acks, RTO arm/cancel, ECMP single paths, per-flow queues; no broadcasts, no allocator",
		graph: torus(4, 3),
		sim: func(g *topology.Graph, seed int64, count func(int) int) *simPlan {
			arr := trafficgen.Poisson(poisson(g, seed, 4*simtime.Microsecond, count(baselineFlows)))
			tcp := sim.RunConfig{Graph: g, Net: fabric, Arrivals: arr, MaxTime: 400 * simtime.Millisecond}
			pfq := tcp
			tcp.Transport = sim.TransportTCP
			pfq.Transport, pfq.PFQSeed = sim.TransportPFQ, subSeed(seed, seedPFQ)
			return &simPlan{g: g, workers: 1, runs: []sim.RunConfig{tcp, pfq}}
		},
	},
	{
		name:  "emu-bulk",
		why:   "emulated 4x4 torus, 1 MiB flows, 100 Gbps links so token buckets never sleep: link hop, mbuf segments and the data codec do the work",
		graph: torus(4, 2),
		emu: func(g *topology.Graph, seed int64, count func(int) int) *emuPlan {
			return emuRack(g, seed, count(emuBulkFlows), emuBulkFlowBytes)
		},
	},
	{
		name:  "emu-churn",
		why:   "same rack, 2 KiB flows: per-flow cost (StartFlow, two 16-node floods, view apply, mbuf carve/release); latency is wake-ups, not bytes",
		graph: torus(4, 2),
		emu: func(g *topology.Graph, seed int64, count func(int) int) *emuPlan {
			return emuRack(g, seed, count(emuChurnFlows), emuChurnBytes)
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
