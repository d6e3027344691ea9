package r2c2

// One benchmark per table/figure of the paper's evaluation (§5), plus the
// ablation benchmarks DESIGN.md calls out and micro-benchmarks of the hot
// paths. Benchmarks run at test scale (64-node torus) so `go test -bench=.`
// finishes in minutes; the cmd/ tools run the same harnesses at the paper's
// 512-node scale.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"r2c2/internal/core"
	"r2c2/internal/emu"
	"r2c2/internal/experiments"
	"r2c2/internal/genetic"
	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
	"r2c2/internal/waterfill"
	"r2c2/internal/wire"
)

func benchScale() experiments.Config {
	s := experiments.TestScale()
	s.Flows = 600
	return s
}

// --- Figure 2: routing-throughput table ---

func BenchmarkFig2RoutingTable(b *testing.B) {
	g, err := topology.NewTorus(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2(g, 10, 1)
		if u := slices.Index(res.Patterns, "uniform"); res.Throughput[u][slices.Index(res.Protocols, routing.RPS)] < 0.9 {
			b.Fatal("uniform/RPS off its anchor")
		}
	}
}

// --- Figure 7: emulator/simulator cross-validation ---

func BenchmarkFig7CrossValidation(b *testing.B) {
	cfg := experiments.Config{K: 3, Dims: 2, LinkGbps: 0.2, Flows: 12,
		Tau: 5 * simtime.Millisecond, Seed: 1, FlowBytes: 256 << 10}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.SimThroughput.Values()) != cfg.Flows {
			b.Fatal("simulator lost flows")
		}
	}
}

// --- Figure 8: CPU overhead of rate recomputation ---

func BenchmarkFig8RateComputation(b *testing.B) {
	s := benchScale()
	rhos := []simtime.Time{500 * simtime.Microsecond, simtime.Millisecond}
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8(s, s.Tau, rhos, 40)
		if len(res.MedianHost) != len(rhos) {
			b.Fatal("missing rows")
		}
	}
}

// --- Figure 9: broadcast overhead ---

func BenchmarkFig9BroadcastOverhead(b *testing.B) {
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1}
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9(fracs)
		if len(res.Fraction) != 3 {
			b.Fatal("missing topologies")
		}
	}
}

// --- Figures 10/11: FCT and throughput CDFs under R2C2/TCP/PFQ ---

func BenchmarkFig10ShortFCT(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig10and11(s, s.Tau)
		if len(res.Runs[0].Results.ShortFCT.Values()) == 0 {
			b.Fatal("no short flows measured")
		}
	}
}

func BenchmarkFig11LongThroughput(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig10and11(s, s.Tau)
		if len(res.Runs[0].Results.LongThroughput.Values()) == 0 {
			b.Fatal("no long flows measured")
		}
	}
}

// --- Figures 12/13/14: load sweeps ---

func BenchmarkFig12FCTvsLoad(b *testing.B) {
	s := benchScale()
	taus := []simtime.Time{s.Tau, 10 * s.Tau}
	for i := 0; i < b.N; i++ {
		res := experiments.Fig12to14(s, taus)
		if len(res.FCT99) != len(taus) {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig13ThroughputVsLoad(b *testing.B) {
	s := benchScale()
	taus := []simtime.Time{s.Tau, 10 * s.Tau}
	for i := 0; i < b.N; i++ {
		res := experiments.Fig12to14(s, taus)
		if len(res.LongAvg) != len(taus) {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig14QueueOccupancy(b *testing.B) {
	s := benchScale()
	taus := []simtime.Time{s.Tau, 10 * s.Tau}
	for i := 0; i < b.N; i++ {
		res := experiments.Fig12to14(s, taus)
		if len(res.QueueP99) != len(taus) {
			b.Fatal("missing queue stats")
		}
	}
}

// --- Figures 15/16: rate accuracy of periodic recomputation ---

func BenchmarkFig15RateError(b *testing.B) {
	s := benchScale()
	rhos := []simtime.Time{100 * simtime.Microsecond, simtime.Millisecond}
	for i := 0; i < b.N; i++ {
		res := experiments.Fig15(s, s.Tau, rhos)
		if len(res.Median) != len(rhos) {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig16RateErrorVsLoad(b *testing.B) {
	s := benchScale()
	taus := []simtime.Time{s.Tau, 25 * s.Tau}
	for i := 0; i < b.N; i++ {
		res := experiments.Fig16(s, 500*simtime.Microsecond, taus)
		if len(res.Median) != len(taus) {
			b.Fatal("missing rows")
		}
	}
}

// --- Figure 17: headroom sensitivity ---

func BenchmarkFig17Headroom(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig17(s, s.Tau, []float64{0, 0.05, 0.2})
		if len(res.FCT99) != 3 {
			b.Fatal("missing rows")
		}
	}
}

// --- Figure 18: adaptive routing selection ---

func BenchmarkFig18AdaptiveRouting(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig18(s, []float64{0.25, 1.0},
			genetic.Config{Population: 40, MaxGens: 20})
		if res.Adaptive[0] < res.AllRPS[0]-1 {
			b.Fatal("adaptive lost to a baseline")
		}
	}
}

// --- Figure 19: control traffic ---

func BenchmarkFig19ControlTraffic(b *testing.B) {
	g, err := topology.NewTorus(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res := experiments.Fig19(g, []int{1, 5, 10})
		if res.Centralized[0] <= res.Decentralized[0] {
			b.Fatal("centralized should cost more at 1 flow/server")
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// Ablation: φ-vector caching. The paper's prototype precomputes per-
// {protocol, destination} link-weight vectors (§4.2); this measures the
// cached hit path against recomputing the DP from scratch each time.
func BenchmarkAblationPhiPrecompute(b *testing.B) {
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]topology.NodeID, 256)
	for i := range pairs {
		src := topology.NodeID(rng.Intn(g.Nodes()))
		dst := topology.NodeID(rng.Intn(g.Nodes()))
		for dst == src {
			dst = topology.NodeID(rng.Intn(g.Nodes()))
		}
		pairs[i] = [2]topology.NodeID{src, dst}
	}
	b.Run("cached", func(b *testing.B) {
		tab := routing.NewTable(g) // one table: second pass onward hits cache
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = tab.Phi(routing.RPS, p[0], p[1])
		}
	})
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tab := routing.NewTable(g) // fresh table: full DP every time
			p := pairs[i%len(pairs)]
			_ = tab.Phi(routing.RPS, p[0], p[1])
		}
	})
}

// Ablation: view-keyed allocation caching in the simulator. Identical
// views share one water-filling run per recomputation round; this measures
// the whole-run effect of disabling that (forcing per-node computation is
// equivalent to a cache of size 0, approximated here by unique views).
func BenchmarkAblationViewCache(b *testing.B) {
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	tab := routing.NewTable(g)
	rc := core.NewRateComputer(tab, 10e9, 0.05)
	view := core.NewView()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		src := topology.NodeID(rng.Intn(g.Nodes()))
		dst := topology.NodeID(rng.Intn(g.Nodes()))
		if src == dst {
			continue
		}
		view.AddFlow(core.FlowInfo{
			ID: wire.MakeFlowID(uint16(src), uint16(i)), Src: src, Dst: dst,
			Weight: 1, DemandKbps: core.UnlimitedDemand, Protocol: routing.RPS,
		})
	}
	nodes := g.Nodes()
	b.Run("shared-by-hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := make(map[uint64]*core.Allocation)
			for n := 0; n < nodes; n++ {
				if _, ok := cache[view.Hash()]; !ok {
					cache[view.Hash()] = rc.Compute(view)
				}
			}
		}
	})
	b.Run("per-node", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for n := 0; n < nodes; n++ {
				// ComputeFull: per-node recomputation means the full fill every
				// time; plain Compute would be answered by its ViewHash cache.
				_ = rc.ComputeFull(view)
			}
		}
	})
}

// Ablation: batch (periodic) recomputation vs per-event recomputation in
// the full packet simulator — the cost side of the Figure 15 trade-off.
func BenchmarkAblationBatchRecompute(b *testing.B) {
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := trafficgen.Poisson(trafficgen.PoissonConfig{
		Nodes: g.Nodes(), MeanInterval: 10 * simtime.Microsecond, Count: 300, Seed: 3,
	})
	run := func(rho simtime.Time) *sim.Results {
		return sim.Run(sim.RunConfig{
			Graph:     g,
			Net:       sim.NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond},
			Transport: sim.TransportR2C2,
			R2C2:      sim.R2C2Config{Headroom: 0.05, Recompute: rho, Protocol: routing.RPS},
			Arrivals:  arrivals,
			MaxTime:   arrivals[len(arrivals)-1].At + simtime.Second,
		})
	}
	b.Run("rho=500us", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := run(500 * simtime.Microsecond); r.Completed == 0 {
				b.Fatal("no flows completed")
			}
		}
	})
	b.Run("rho=20us", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := run(20 * simtime.Microsecond); r.Completed == 0 {
				b.Fatal("no flows completed")
			}
		}
	})
}

// Ablation: broadcast-tree choice. Random tree per event balances
// broadcast load across links; a fixed tree concentrates it. Reported as
// ns/op of building and measuring the load imbalance.
func BenchmarkAblationBroadcastTrees(b *testing.B) {
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	measure := func(trees int) float64 {
		fib := topology.NewBroadcastFIB(g, trees, 7)
		load := make([]int, g.NumLinks())
		var hops []topology.LinkID
		for src := 0; src < g.Nodes(); src++ {
			for ev := 0; ev < trees; ev++ { // one event per tree, round-robin
				for v := range g.Nodes() {
					hops, _ = fib.AppendNextHops(hops[:0], topology.NodeID(src), uint8(ev%trees), topology.NodeID(v))
					for _, lid := range hops {
						load[lid]++
					}
				}
			}
		}
		max, sum := 0, 0
		for _, c := range load {
			sum += c
			if c > max {
				max = c
			}
		}
		return float64(max) * float64(g.NumLinks()) / float64(sum)
	}
	b.Run("single-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if measure(1) < 1 {
				b.Fatal("imbalance below 1 impossible")
			}
		}
	})
	b.Run("four-trees", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if measure(4) < 1 {
				b.Fatal("imbalance below 1 impossible")
			}
		}
	})
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkWaterfillAllocate times one from-scratch fill on the 8-ary
// 3-cube: flows=512 is the paper's 512-node, 512-flow recomputation, and
// flows=19 cycles 64 pre-drawn views of the size ctrl512's recomputations
// see.
func BenchmarkWaterfillAllocate(b *testing.B) {
	g, err := topology.NewTorus(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	tab := routing.NewTable(g)
	rng := rand.New(rand.NewSource(4))
	view := func(n int) []waterfill.Flow {
		flows := make([]waterfill.Flow, n)
		for i := range flows {
			src := topology.NodeID(rng.Intn(g.Nodes()))
			dst := topology.NodeID(rng.Intn(g.Nodes()))
			for dst == src {
				dst = topology.NodeID(rng.Intn(g.Nodes()))
			}
			flows[i] = waterfill.Flow{
				Phi: tab.Phi(routing.RPS, src, dst), Weight: 1, Demand: waterfill.Unlimited,
			}
		}
		return flows
	}
	big := view(512)
	light := make([][]waterfill.Flow, 64)
	for i := range light {
		light[i] = view(19)
	}
	alloc := waterfill.NewAllocator(waterfill.Config{
		NumLinks: g.NumLinks(), Capacity: 10e9, Headroom: 0.05,
	})
	b.Run("flows=512", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			alloc.Allocate(big)
		}
	})
	b.Run("flows=19", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			alloc.Allocate(light[i%len(light)])
		}
	})
}

func BenchmarkPhiRPS512(b *testing.B) {
	g, err := topology.NewTorus(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := routing.NewTable(g)
		_ = tab.Phi(routing.RPS, 0, topology.NodeID(g.Nodes()-1))
	}
}

func BenchmarkBroadcastEncodeDecode(b *testing.B) {
	bc := &wire.Broadcast{Event: wire.EventFlowStart, Src: 3, Dst: 500, DemandKbps: 123456}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := wire.EncodeBroadcast(bc)
		if _, err := wire.DecodeBroadcast(pkt[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorEventThroughput(b *testing.B) {
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := trafficgen.Poisson(trafficgen.PoissonConfig{
		Nodes: g.Nodes(), MeanInterval: 10 * simtime.Microsecond, Count: 200, Seed: 5,
	})
	b.ReportAllocs()
	b.ResetTimer()
	var events, hops uint64
	for i := 0; i < b.N; i++ {
		res := sim.Run(sim.RunConfig{
			Graph:     g,
			Net:       sim.NetConfig{LinkGbps: 10},
			Transport: sim.TransportR2C2,
			R2C2:      sim.R2C2Config{Headroom: 0.05, Protocol: routing.RPS},
			Arrivals:  arrivals,
			MaxTime:   arrivals[len(arrivals)-1].At + simtime.Second,
		})
		events += res.Events
		hops += res.Hops
	}
	reportEventsAndHops(b, events, hops)
}

// BenchmarkBulkDataPath is the bench's bulk64 workload in miniature: 64
// one-MiB flows sprayed packet by packet (RPS) over a 4×4×4 torus, so nearly
// all the work is per data packet — pacing, path sampling, three or so port
// hops, and the receiver's flow-table slot, reorder window and reorder
// counters — and little of it per flow or per tick. ns/pkt is the whole run
// over the data packets delivered.
func BenchmarkBulkDataPath(b *testing.B) {
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := trafficgen.FixedSize(trafficgen.PoissonConfig{
		Nodes: g.Nodes(), MeanInterval: 40 * simtime.Microsecond, Count: 64, Seed: 5,
	}, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	var pkts int
	for i := 0; i < b.N; i++ {
		res := sim.Run(sim.RunConfig{
			Graph:     g,
			Net:       sim.NetConfig{LinkGbps: 10},
			Transport: sim.TransportR2C2,
			R2C2:      sim.R2C2Config{Headroom: 0.05, Protocol: routing.RPS},
			Arrivals:  arrivals,
			MaxTime:   arrivals[len(arrivals)-1].At + simtime.Second,
		})
		if res.Completed != len(arrivals) {
			b.Fatalf("%d of %d flows completed", res.Completed, len(arrivals))
		}
		pkts += res.Reorder.Len() // one occupancy observation per data packet delivered
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
}

// BenchmarkPFQDataPath is the PFQ half of the bench's baselines64 workload at
// an eighth of its flows: Pareto-sized flows arriving every 4 µs on average
// over a 4×4×4 torus under the per-flow-queue baseline, so the work is PFQ's
// per packet — the ports' round-robin rings, the nodes' credit lists, a
// wake-up per hop — with no broadcasts and no allocator.
func BenchmarkPFQDataPath(b *testing.B) {
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := trafficgen.Poisson(trafficgen.PoissonConfig{
		Nodes: g.Nodes(), MeanInterval: 4 * simtime.Microsecond, Count: 2000,
		MaxFlowBytes: 2 << 20, Seed: 5,
	})
	b.ReportAllocs()
	b.ResetTimer()
	var events, hops uint64
	for i := 0; i < b.N; i++ {
		res := sim.Run(sim.RunConfig{
			Graph:     g,
			Net:       sim.NetConfig{LinkGbps: 10},
			Transport: sim.TransportPFQ,
			PFQSeed:   5,
			Arrivals:  arrivals,
			MaxTime:   arrivals[len(arrivals)-1].At + simtime.Second,
		})
		if res.Completed != len(arrivals) {
			b.Fatalf("%d of %d flows completed", res.Completed, len(arrivals))
		}
		events += res.Events
		hops += res.Hops
	}
	reportEventsAndHops(b, events, hops)
}

// reportEventsAndHops reports a packet simulation's two units of work. A
// packet-hop is what the workload asks for and does not depend on how the
// engine steps a port through it; an engine event is what the engine spends
// on it — one per hop plus one per packet that waited in a queue — so
// events/run moves when the engine's bookkeeping does and ns/hop is the cost
// to compare across such changes.
func reportEventsAndHops(b *testing.B, events, hops uint64) {
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(hops)/float64(b.N), "hops/run")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
}

// Sharded-engine scaling (DESIGN.md §14): one 8-rack workload executed at
// worker counts 1/2/4/8, each with one shard of contiguous racks per worker.
// Every sub-benchmark produces byte-identical Results, and events/run and
// epochs/run match across counts; handoffs/run does not, since fewer
// shards leave fewer rack cables on the boundary. workers=1 is the serial
// engine (the sharded engine's differential oracle), so the workers=2 ratio
// exposes the sharding overhead itself: epoch barriers, boundary drains and
// the control events every shard repeats.
func BenchmarkShardedEventThroughput(b *testing.B) {
	const racks = 8
	subs := make([]*topology.Graph, racks)
	for i := range subs {
		g, err := topology.NewTorus(4, 3)
		if err != nil {
			b.Fatal(err)
		}
		subs[i] = g
	}
	var bridges []topology.Bridge
	for i := 0; i < racks; i++ {
		j := (i + 1) % racks
		bridges = append(bridges,
			topology.Bridge{RackA: i, RackB: j, NodeA: 0, NodeB: 7},
			topology.Bridge{RackA: i, RackB: j, NodeA: 11, NodeB: 4},
		)
	}
	g, err := topology.ConnectRacks(subs, bridges)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := trafficgen.FixedSize(trafficgen.PoissonConfig{
		Nodes: g.Nodes(), MeanInterval: 50 * simtime.Microsecond, Count: 300, Seed: 5,
	}, 128<<10)
	cfg := sim.RunConfig{
		Graph:     g,
		Net:       sim.NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond},
		Transport: sim.TransportR2C2,
		R2C2: sim.R2C2Config{
			Headroom: 0.05, Protocol: routing.RPS,
			Recompute: 100 * simtime.Microsecond,
			Reliable:  true, RTO: 300 * simtime.Microsecond,
			Seed: 11,
		},
		Arrivals: arrivals,
		MaxTime:  50 * simtime.Millisecond,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			run := cfg
			run.Shards = workers
			b.ReportAllocs()
			b.ResetTimer()
			var events, hops, handoffs, epochs, active uint64
			for i := 0; i < b.N; i++ {
				res := sim.Run(run)
				events += res.Events
				hops += res.Hops
				for _, st := range res.ShardStats {
					handoffs += st.Handoffs
					active += st.ActiveEpochs
				}
				if len(res.ShardStats) > 0 {
					epochs += res.ShardStats[0].Epochs
				}
			}
			reportEventsAndHops(b, events, hops)
			b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/run")
			b.ReportMetric(float64(epochs)/float64(b.N), "epochs/run")
			if epochs > 0 {
				b.ReportMetric(float64(active)/float64(epochs), "active-shards/epoch")
			}
		})
	}
}

// Per-tick control-plane cost (DESIGN.md §15): one multi-rack workload on
// the rack-partitioned engine, where every shard runs the recomputation tick
// over the nodes it owns, at two live-flow populations. The workload is a
// persistent bulk population (arrives in the first 0.5 ms, outlives the run)
// plus one long-lived flow arriving 50 µs after every tick — far enough from
// the next tick that its broadcast usually converges, so most ticks see a
// changed-but-agreed view and the allocator must actually run.
// ctrl-ns/tick sums the shards' tick time per recomputation round;
// max-shard-ns/tick is the busiest shard's, the part of a tick the shards
// cannot overlap.
func BenchmarkControlPlaneTick(b *testing.B) {
	const racks = 4
	const tick = simtime.Millisecond
	for _, flows := range []int{100, 400} {
		subs := make([]*topology.Graph, racks)
		for i := range subs {
			g, err := topology.NewTorus(3, 3)
			if err != nil {
				b.Fatal(err)
			}
			subs[i] = g
		}
		var bridges []topology.Bridge
		for i := 0; i < racks; i++ {
			j := (i + 1) % racks
			bridges = append(bridges,
				topology.Bridge{RackA: i, RackB: j, NodeA: 0, NodeB: 4},
				topology.Bridge{RackA: i, RackB: j, NodeA: 5, NodeB: 1},
			)
		}
		g, err := topology.ConnectRacks(subs, bridges)
		if err != nil {
			b.Fatal(err)
		}
		arrivals := trafficgen.FixedSize(trafficgen.PoissonConfig{
			Nodes: g.Nodes(), MeanInterval: 500 * simtime.Microsecond / simtime.Time(flows), Count: flows, Seed: 7,
		}, 64<<20)
		for k := 1; k < 20; k++ {
			src := topology.NodeID(k % g.Nodes())
			dst := topology.NodeID((k + g.Nodes()/2) % g.Nodes())
			arrivals = append(arrivals, trafficgen.Arrival{
				At:  simtime.Time(k)*tick + 50*simtime.Microsecond,
				Src: src, Dst: dst, SizeBytes: 64 << 20, Weight: 1,
			})
		}
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At })
		cfg := sim.RunConfig{
			Graph: g,
			// Shallow ports (vs the 1 MB default) bound broadcast queueing so
			// views converge well inside a tick; divergent views would cost
			// one allocator run each and measure the divergence instead.
			Net:       sim.NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond, QueueBytes: 64 << 10},
			Transport: sim.TransportR2C2,
			R2C2: sim.R2C2Config{
				Headroom: 0.05, Protocol: routing.RPS,
				Recompute: tick,
				Reliable:  true, RTO: 300 * simtime.Microsecond,
				Seed: 11,
			},
			Arrivals: arrivals,
			MaxTime:  20 * simtime.Millisecond,
			Shards:   racks,
		}
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var ctrlNs, maxShardNs int64
			var rounds uint64
			for i := 0; i < b.N; i++ {
				res := sim.Run(cfg)
				rounds += res.RecomputeRounds
				iterMax := int64(0)
				for _, st := range res.ShardStats {
					ctrlNs += st.CtrlNs
					iterMax = max(iterMax, st.CtrlNs)
				}
				maxShardNs += iterMax
			}
			if rounds > 0 {
				b.ReportMetric(float64(ctrlNs)/float64(rounds), "ctrl-ns/tick")
				b.ReportMetric(float64(maxShardNs)/float64(rounds), "max-shard-ns/tick")
			}
		})
	}
}

// --- Benchmarks of the operational extensions ---

// One §3.4 selection round over a 64-flow view (GA with the paper's
// population).
func BenchmarkSelectorRound(b *testing.B) {
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	tab := routing.NewTable(g)
	protocols := []routing.Protocol{routing.RPS, routing.VLB}
	rng := rand.New(rand.NewSource(6))
	flows := trafficgen.PermutationLoad(g, 1.0, rng)
	fitness := genetic.AggregateFitness(tab, 10e9, 0.05, flows, protocols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		genetic.Optimize(genetic.Config{Population: 100, MaxGens: 10, Seed: int64(i)},
			len(flows), len(protocols), genetic.UniformAssignment(len(flows), 0), fitness)
	}
}

// Failure reroute cost: degraded-fabric construction plus table/FIB swap.
func BenchmarkFailureReroute(b *testing.B) {
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	ab, _ := g.LinkBetween(0, 1)
	ba, _ := g.LinkBetween(1, 0)
	failed := make([]bool, g.NumLinks())
	failed[ab], failed[ba] = true, true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, _, err := g.WithoutLinksAndNodes(failed, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = routing.NewTable(sub)
		_ = topology.NewBroadcastFIB(sub, 2, 1)
	}
}

// Reliability overhead: identical workload with and without the §6 ack
// layer on a lossless fabric.
func BenchmarkReliabilityOverhead(b *testing.B) {
	g, err := topology.NewTorus(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := trafficgen.Poisson(trafficgen.PoissonConfig{
		Nodes: g.Nodes(), MeanInterval: 20 * simtime.Microsecond, Count: 150, Seed: 8,
	})
	run := func(reliable bool) {
		res := sim.Run(sim.RunConfig{
			Graph:     g,
			Net:       sim.NetConfig{LinkGbps: 10},
			Transport: sim.TransportR2C2,
			R2C2:      sim.R2C2Config{Headroom: 0.05, Protocol: routing.RPS, Reliable: reliable},
			Arrivals:  arrivals,
			MaxTime:   arrivals[len(arrivals)-1].At + simtime.Second,
		})
		if res.Completed != len(arrivals) {
			b.Fatalf("reliable=%v: %d/%d complete", reliable, res.Completed, len(arrivals))
		}
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(false)
		}
	})
	b.Run("reliable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(true)
		}
	})
}

// Emulated-rack data path: wall-clock time to push 1 MB through the live
// goroutine fabric. Links run at 100 Gbps, so no token bucket sleeps and the
// benchmark times the emulator, not its link rate.
func BenchmarkEmuDataPath(b *testing.B) {
	g, err := topology.NewTorus(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	rack, err := emu.New(emu.Config{Graph: g, LinkMbps: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rack.Start()
	defer rack.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := rack.StartFlow(0, 4, 1<<20, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Wait(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(1 << 20)
}

// Emulated-rack flow churn: sequential 2 KiB flows from node 0 to node 8,
// half-way across the 4×4 torus, at 100 Gbps. A flow is two packets and two
// 16-node floods, so this times the emulator's per-flow cost (StartFlow, the
// floods' hops and view updates, wake-ups), not its bytes. It reports the
// wall-clock time and the allocations (process-wide) per flow.
func BenchmarkEmuFlowChurn(b *testing.B) {
	g, err := topology.NewTorus(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	rack, err := emu.New(emu.Config{Graph: g, LinkMbps: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rack.Start()
	defer rack.Stop()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := rack.StartFlow(0, 8, 2<<10, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Wait(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/flow")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/flow")
}

// Raw scheduler throughput: a ladder of self-rearming timers with spread
// periods drains 100k events per op through the hierarchical timer wheel —
// no network, no transport, just schedule/advance/dispatch (DESIGN.md §12).
// The engine, its node arena and the reused per-timer callbacks are built
// once outside the timed region, so allocs/op measures the wheel's steady
// state — which must be allocation-free: every fire recycles its node
// through the arena free list and the staging heap keeps its capacity.
func BenchmarkTimerWheel(b *testing.B) {
	const (
		timers = 64
		fires  = 100_000
	)
	eng := &sim.Engine{}
	for j := 0; j < timers; j++ {
		// Periods span level 0 and cross into level 1 of the wheel so the
		// benchmark exercises placement and cascading, not one slot.
		period := simtime.Time(j+1) * 37 * simtime.Nanosecond
		var fn func()
		fn = func() { eng.After(period, fn) }
		eng.After(period, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := eng.Processed() + fires
		for eng.Processed() < target {
			eng.Run(eng.Now() + simtime.Millisecond)
		}
	}
	b.ReportMetric(float64(fires), "events/op")
}

// The wheel under a lock-step flood: bursts of 128 events tied on one
// timestamp (and on emit and tie key, so every comparison runs to seq), which
// is what a 512-node broadcast wave looks like to the staging heap — where
// BenchmarkTimerWheel's spread periods rarely stage two events together.
func BenchmarkTimerWheelSameInstant(b *testing.B) {
	const (
		burst  = 128
		bursts = 800
	)
	eng := &sim.Engine{}
	fired := 0
	fn := func() { fired++ }
	wave := func() {
		at := eng.Now() + 200*simtime.Nanosecond
		for k := 0; k < burst; k++ {
			eng.Schedule(at, fn)
		}
		eng.Run(at)
	}
	wave() // sizes the arena and the staging heap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < bursts; j++ {
			wave()
		}
	}
	if want := (b.N*bursts + 1) * burst; fired != want {
		b.Fatalf("%d events fired, want %d", fired, want)
	}
	b.ReportMetric(burst*bursts, "events/op")
}

// The wheel at the fabric's own delays: 384 self-re-arming timers, one per
// link of a 4-ary 3-cube, each alternating one hop (112.8 ns: a small
// packet's serialisation plus propagation at 10 Gbps) with one MTU
// serialisation (1.2 µs), their phases staggered over one such cycle. Every
// delay is a whole number of hops rather than a spread of periods
// (BenchmarkTimerWheel), a lock-step instant (…SameInstant) or one crowded
// slot (…CrowdedSlot), so this is the shape the level-0 slot width trades
// on: a slot much narrower than a hop is loaded for one or two events,
// a much wider one sorts many (DESIGN.md §12's sweep).
func BenchmarkTimerWheelHops(b *testing.B) {
	const (
		timers = 384
		fires  = 100_000
		hop    = 112*simtime.Nanosecond + 800
		mtu    = 1200 * simtime.Nanosecond
	)
	eng := &sim.Engine{}
	for j := 0; j < timers; j++ {
		short := j%2 == 0
		var fn func()
		fn = func() {
			short = !short
			if short {
				eng.After(hop, fn)
			} else {
				eng.After(mtu, fn)
			}
		}
		eng.After(simtime.Time(j)*(hop+mtu)/timers, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := eng.Processed()
	for i := 0; i < b.N; i++ {
		target := eng.Processed() + fires
		for eng.Processed() < target {
			eng.Run(eng.Now() + simtime.Microsecond)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(eng.Processed()-start), "ns/event")
}

// The wheel on crowded slots: each burst puts 1,024 events at random
// picoseconds of one level-0 slot (2^16 ps, internal/sim's wheelShift),
// armed in an order unrelated to their timestamps, then drains the slot. A
// slot is sorted as a whole when dispatch reaches it, so this is the case a
// quadratic within-slot order would show up in; ns/event is the per-event
// cost of filing, ordering and dispatching.
func BenchmarkTimerWheelCrowdedSlot(b *testing.B) {
	const (
		burst  = 1024
		bursts = 64
		slotPs = simtime.Time(1) << 16
	)
	rng := rand.New(rand.NewSource(1))
	offsets := make([]simtime.Time, burst)
	for k := range offsets {
		offsets[k] = simtime.Time(rng.Int63n(int64(slotPs)))
	}
	eng := &sim.Engine{}
	fired := 0
	fn := func() { fired++ }
	slot := func() {
		base := (eng.Now()/slotPs + 2) * slotPs
		for _, off := range offsets {
			eng.Schedule(base+off, fn)
		}
		eng.Run(base + slotPs - 1)
	}
	slot() // sizes the arena and the run
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < bursts; j++ {
			slot()
		}
	}
	if want := (b.N*bursts + 1) * burst; fired != want {
		b.Fatalf("%d events fired, want %d", fired, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bursts*burst), "ns/event")
}

// View.Apply as a flood drives it: one start/finish stream applied to 512
// views in turn, so each view is touched once per event and has left the
// cache by the next — a single hot view (the bench/ ladder's
// core.view_apply_ns) hides exactly that. One op is one Apply; every view
// holds a sliding window of 48 live flows.
func BenchmarkViewApplyCold(b *testing.B) {
	const (
		views = 512
		live  = 48
	)
	vs := make([]*core.View, views)
	for i := range vs {
		vs[i] = core.NewView()
	}
	// Flow k is sourced round-robin; event 2k starts it, event 2k+1 finishes
	// flow k-live. The one broadcast struct is rewritten between events.
	var bc wire.Broadcast
	event := func(e int) {
		k := e / 2
		bc = wire.Broadcast{Event: wire.EventFlowStart, Weight: 1, DemandKbps: core.UnlimitedDemand}
		if e%2 == 1 {
			k -= live
			bc.Event = wire.EventFlowFinish
		}
		bc.Src, bc.FlowSeq, bc.Dst = uint16(k%views), uint16(k/views), uint16((k+1)%views)
	}
	apply := func(e int) {
		event(e)
		for _, v := range vs {
			if err := v.Apply(&bc); err != nil {
				b.Fatal(err)
			}
		}
	}
	e := 0
	for ; e < 4*live; e++ { // fill the window (finishes of flows that never started are no-ops)
		apply(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += views {
		apply(e)
		e++
	}
}

// Building the paper-scale broadcast FIB: 512 sources × 4 trees on the 8-ary
// 3-cube, every source's trees forced through a lookup. bytes/op is what the
// trees retain plus the per-source RNG.
func BenchmarkBroadcastFIBBuild(b *testing.B) {
	g, err := topology.NewTorus(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	const trees = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fib := topology.NewBroadcastFIB(g, trees, 1)
		for src := 0; src < g.Nodes(); src++ {
			if _, ok := fib.Tree(topology.NodeID(src), trees-1); !ok {
				b.Fatalf("no tree for source %d", src)
			}
		}
	}
	b.ReportMetric(float64(g.Nodes()*trees), "trees/op")
}

// Mbuf-pool churn on the emulated rack: 2 KB flows are dominated by the
// control plane — every one carves start/finish broadcast chains and a
// handful of data segments out of the pool, fans the broadcasts out with
// per-hop retains and releases everything back (DESIGN.md §12). Steady-state
// allocs/op therefore measures pool recycling, not payload throughput, and
// 100 Gbps links keep the link rate out of ns/op.
func BenchmarkEmuMbufPool(b *testing.B) {
	g, err := topology.NewTorus(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	rack, err := emu.New(emu.Config{Graph: g, LinkMbps: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rack.Start()
	defer rack.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := rack.StartFlow(0, 4, 2048, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Wait(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := rack.MbufStats(); st.Released > 0 && b.N > 10 {
		b.ReportMetric(float64(st.PeakLive), "peak-segs")
	}
}
