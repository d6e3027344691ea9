package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"r2c2/internal/core"
	"r2c2/internal/emu"
	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/waterfill"
	"r2c2/internal/wire"
)

// The ladder times each layer from outside: it calls the layer's public
// functions with the workload's own inputs — its graph, its (src, dst)
// pairs, its start/finish order, its rho — and reports the cost per call.
// Every rung is one span holding a batch of calls.

// ladderFlow is one flow of the workload as the run saw it. start and finish
// are on the workload's clock: simulated picoseconds for sim workloads, host
// nanoseconds since the batch began for emu workloads.
type ladderFlow struct {
	src, dst      topology.NodeID
	start, finish int64
	done          bool
}

type ladderInput struct {
	g        *topology.Graph
	mkGraph  func() (*topology.Graph, error)
	trees    int     // broadcast trees per source of the stack that ran
	linkBits float64 // link capacity, bits/s
	tick     int64   // rho, on the flows' clock
	flows    []ladderFlow
	seed     int64
	// r2c2 is the sim workload's R2C2 run, made serial; nil for the TCP/PFQ
	// workload, which has no control plane (the waterfill, core and flooding
	// rungs are skipped), and for the emulator.
	r2c2 *sim.RunConfig
	// emu: a control plane, but no run the ladder could replay and no use
	// for the simulator's engine and forwarding rungs.
	emu bool
}

// rungBudget caps the time one rung may spend once it has made its first
// call; the per-call cost is what was measured up to then.
const rungBudget = 250 * time.Millisecond

func simLadderInput(w *workload, plan *simPlan, res *sim.Results, seed int64) *ladderInput {
	// Four broadcast trees per source is sim.R2C2Config's default.
	in := &ladderInput{g: plan.g, mkGraph: w.graph, trees: 4, linkBits: fabric.LinkGbps * 1e9, seed: seed}
	if rc := &plan.runs[0]; rc.Transport == sim.TransportR2C2 {
		serial := *rc
		serial.Shards = 0
		in.r2c2, in.tick = &serial, int64(rc.R2C2.Recompute)
	}
	for _, f := range res.Flows {
		in.flows = append(in.flows, ladderFlow{src: f.Src, dst: f.Dst,
			start: int64(f.Started), finish: int64(f.Finished), done: f.Done})
	}
	return in
}

// flowEvent is one start or finish, in the order the workload produced them.
type flowEvent struct {
	at     int64
	flow   int
	finish bool
}

func (in *ladderInput) events() []flowEvent {
	evs := make([]flowEvent, 0, 2*len(in.flows))
	for i, f := range in.flows {
		evs = append(evs, flowEvent{at: f.start, flow: i})
		if f.done {
			evs = append(evs, flowEvent{at: f.finish, flow: i, finish: true})
		}
	}
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.flow != y.flow {
			return x.flow < y.flow
		}
		return !x.finish && y.finish
	})
	return evs
}

// infos gives every flow the identity the stack would: a per-source
// sequence number in start order.
func (in *ladderInput) infos(evs []flowEvent) []core.FlowInfo {
	infos := make([]core.FlowInfo, len(in.flows))
	seq := make(map[topology.NodeID]uint16)
	for _, ev := range evs {
		if ev.finish {
			continue
		}
		f := in.flows[ev.flow]
		infos[ev.flow] = core.FlowInfo{
			ID: wire.MakeFlowID(uint16(f.src), seq[f.src]), Src: f.src, Dst: f.dst,
			Weight: 1, DemandKbps: core.UnlimitedDemand, Protocol: routing.RPS,
		}
		seq[f.src]++
	}
	return infos
}

// pairs returns the workload's distinct (src, dst) pairs in first-use order.
func (in *ladderInput) pairs() [][2]topology.NodeID {
	seen := make(map[[2]topology.NodeID]bool)
	var out [][2]topology.NodeID
	for _, f := range in.flows {
		p := [2]topology.NodeID{f.src, f.dst}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// rung times one batch of calls into a layer under a span and returns the
// nanoseconds per call. body returns how many calls it made.
func rung(tr *tracer, parent spanID, name string, body func() int) float64 {
	sp := tr.start(parent, name)
	t := time.Now()
	calls := body()
	d := time.Since(t)
	tr.end(sp, calls)
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(calls)
}

// untilBudget calls step until it has made at least min calls and the rung's
// time budget is spent, or until max calls; it returns the calls made.
func untilBudget(min, max int, step func(i int)) int {
	t := time.Now()
	for i := 0; i < max; i++ {
		if i >= min && i%16 == 0 && time.Since(t) > rungBudget {
			return i
		}
		step(i)
	}
	return max
}

// times calls step n times and returns n.
func times(n int, step func(i int)) int {
	for i := 0; i < n; i++ {
		step(i)
	}
	return n
}

func runLadder(in *ladderInput, tr *tracer, parent spanID, out map[string]float64) {
	evs := in.events()
	infos := in.infos(evs)
	pairs := in.pairs()
	rng := rand.New(rand.NewSource(subSeed(in.seed, seedLadder)))

	ladderTopology(in, tr, parent, out)
	tab := ladderRouting(in, pairs, rng, tr, parent, out)
	ladderWire(tr, parent, out)
	if in.r2c2 != nil || in.emu {
		ladderWaterfill(in, evs, infos, tab, tr, parent, out)
		ladderCore(in, evs, infos, tab, tr, parent, out)
	}
	if !in.emu {
		ladderSim(in, infos, tab, rng, tr, parent, out)
	}
}

func ladderTopology(in *ladderInput, tr *tracer, parent spanID, out map[string]float64) {
	out["topology.graph_build_ms"] = rung(tr, parent, "topology.graph", func() int {
		return untilBudget(3, 20, func(int) {
			if _, err := in.mkGraph(); err != nil {
				panic(err) // the same call built the run's graph
			}
		})
	}) / 1e6
	out["topology.fib_build_ms"] = rung(tr, parent, "topology.NewBroadcastFIB+Tree", func() int {
		fib := topology.NewBroadcastFIB(in.g, in.trees, in.seed)
		for src := 0; src < in.g.Nodes(); src++ {
			for t := 0; t < in.trees; t++ {
				fib.Tree(topology.NodeID(src), uint8(t))
			}
		}
		return 1
	}) / 1e6
	if in.g.Racks() > 1 {
		out["topology.partition_ms"] = rung(tr, parent, "topology.NewPartition+NewReductionTree", func() int {
			return untilBudget(3, 50, func(int) {
				p, err := topology.NewPartition(in.g)
				if err == nil {
					_, err = topology.NewReductionTree(in.g, p)
				}
				if err != nil {
					panic(err) // the sharded run partitioned the same graph
				}
			})
		}) / 1e6
	}
}

// ladderRouting returns a table warm on the workload's pairs, for the rungs
// that follow.
func ladderRouting(in *ladderInput, pairs [][2]topology.NodeID, rng *rand.Rand, tr *tracer, parent spanID, out map[string]float64) *routing.Table {
	var buf []topology.LinkID
	// NewTable is lazy: a run pays for the minimal-route DAG of every
	// destination on first use, so the build is timed through first use.
	out["routing.table_build_ms"] = rung(tr, parent, "routing.NewTable+first-use", func() int {
		tab := routing.NewTable(in.g)
		built := make(map[topology.NodeID]bool)
		for _, p := range pairs {
			if !built[p[1]] {
				built[p[1]] = true
				buf = tab.AppendPath(buf[:0], routing.RPS, p[0], p[1], rng)
			}
		}
		return 1
	}) / 1e6

	tab := routing.NewTable(in.g)
	cold := 0
	out["routing.phi_cold_us"] = rung(tr, parent, "routing.Phi/cold", func() int {
		cold = untilBudget(1, len(pairs), func(i int) { tab.Phi(routing.RPS, pairs[i][0], pairs[i][1]) })
		return cold
	}) / 1e3
	out["routing.phi_warm_ns"] = rung(tr, parent, "routing.Phi/warm", func() int {
		return times(200_000, func(i int) { p := pairs[i%cold]; tab.Phi(routing.RPS, p[0], p[1]) })
	})
	out["routing.sample_path_ns"] = rung(tr, parent, "routing.AppendPath", func() int {
		return times(200_000, func(i int) {
			p := pairs[i%len(pairs)]
			buf = tab.AppendPath(buf[:0], routing.RPS, p[0], p[1], rng)
		})
	})
	paths := make([][]topology.LinkID, 0, 256)
	for i := 0; i < 256; i++ {
		p := pairs[i%len(pairs)]
		paths = append(paths, tab.AppendPath(nil, routing.RPS, p[0], p[1], rng))
	}
	var route wire.Route
	out["routing.port_route_ns"] = rung(tr, parent, "routing.AppendPortRoute", func() int {
		return times(200_000, func(i int) {
			var err error
			if route, err = tab.AppendPortRoute(route[:0], paths[i%len(paths)]); err != nil {
				panic(err) // a sampled minimal path is a valid route
			}
		})
	})
	return tab
}

func ladderWire(tr *tracer, parent spanID, out map[string]float64) {
	payload := make([]byte, sim.MaxPayload)
	h := wire.DataHeader{RLen: 4, RIdx: 1, Flow: wire.MakeFlowID(3, 7), Src: 3, Dst: 11, PLen: uint16(len(payload))}
	buf := make([]byte, 0, sim.MTU)
	var dec wire.DataHeader
	out["wire.data_codec_ns"] = rung(tr, parent, "wire.EncodeData+DecodeDataInto", func() int {
		return times(100_000, func(i int) {
			h.Seq = uint32(i)
			pkt, err := wire.EncodeData(buf[:0], &h, payload)
			if err == nil {
				_, err = wire.DecodeDataInto(pkt, &dec)
			}
			if err != nil {
				panic(err) // a well-formed MTU packet
			}
		})
	})
	b := wire.Broadcast{Event: wire.EventFlowStart, Src: 3, Dst: 11, Weight: 1, DemandKbps: core.UnlimitedDemand}
	out["wire.bcast_codec_ns"] = rung(tr, parent, "wire.EncodeBroadcast+DecodeBroadcast", func() int {
		return times(200_000, func(i int) {
			b.FlowSeq = uint16(i)
			pkt := wire.EncodeBroadcast(&b)
			if _, err := wire.DecodeBroadcast(pkt[:]); err != nil {
				panic(err) // a well-formed broadcast
			}
		})
	})
}

func ladderWaterfill(in *ladderInput, evs []flowEvent, infos []core.FlowInfo, tab *routing.Table, tr *tracer, parent spanID, out map[string]float64) {
	spec := func(flow int) waterfill.Flow {
		f := in.flows[flow]
		return waterfill.Flow{Phi: tab.Phi(routing.RPS, f.src, f.dst), Weight: 1, Demand: waterfill.Unlimited}
	}
	cfg := waterfill.Config{NumLinks: in.g.NumLinks(), Capacity: in.linkBits, Headroom: headroom}

	// The workload's peak live-flow set.
	live := make(map[int]bool)
	var peak []int
	for _, ev := range evs {
		if ev.finish {
			delete(live, ev.flow)
			continue
		}
		live[ev.flow] = true
		if len(live) > len(peak) {
			peak = peak[:0]
			for f := range live {
				peak = append(peak, f)
			}
		}
	}
	sort.Ints(peak)
	flows := make([]waterfill.Flow, len(peak))
	for i, f := range peak {
		flows[i] = spec(f) // also warms phi for the rungs below
	}
	out["waterfill.peak_live_flows"] = float64(len(peak))
	alloc := waterfill.NewAllocator(cfg)
	alloc.Allocate(flows) // size the scratch buffers once
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls := 0
	out["waterfill.allocate_us"] = rung(tr, parent, "waterfill.Allocate", func() int {
		calls = untilBudget(3, 2000, func(int) { alloc.Allocate(flows) })
		return calls
	}) / 1e3
	runtime.ReadMemStats(&m1)
	out["waterfill.allocs_per_allocate"] = float64(m1.Mallocs-m0.Mallocs) / float64(calls)

	specs := make([]waterfill.Flow, len(in.flows))
	for i := range specs {
		specs[i] = spec(i)
	}
	out["waterfill.incremental_us"] = rung(tr, parent, "waterfill.Incremental.Apply", func() int {
		inc := waterfill.NewIncremental(cfg)
		handles := make([]waterfill.Handle, len(in.flows))
		return untilBudget(1, len(evs), func(i int) {
			if ev := evs[i]; ev.finish {
				inc.Remove(handles[ev.flow])
			} else {
				handles[ev.flow] = inc.Add(specs[ev.flow])
			}
		})
	}) / 1e3
}

// tickViews is the view sequence of a workload whose run cannot be replayed
// from outside (the emulator's): one node's view at every rho boundary the
// workload's start/finish order changed it across.
func (in *ladderInput) tickViews(evs []flowEvent, infos []core.FlowInfo) [][]core.FlowInfo {
	var seq [][]core.FlowInfo
	v := core.NewView()
	next := in.tick
	for _, ev := range evs {
		if ev.at >= next {
			if v.Len() > 0 {
				seq = append(seq, v.Flows())
			}
			next = (ev.at/in.tick + 1) * in.tick
		}
		if ev.finish {
			v.RemoveFlow(infos[ev.flow].ID)
		} else {
			v.AddFlow(infos[ev.flow])
		}
	}
	return seq
}

// recomputedViews replays an R2C2 run through the simulator's public API,
// stopping one picosecond before every rho tick to copy what the tick is
// about to compute on: the distinct views, in node order, of the nodes that
// source a live flow. These are the inputs of the run's RateComputer.Compute
// calls, in the order it made them on its one shared computer; their number
// (core.replayed_views) should equal sim.recomputations.
func recomputedViews(rc sim.RunConfig) [][]core.FlowInfo {
	eng := &sim.Engine{}
	net := sim.NewNetwork(rc.Graph, eng, rc.Net)
	r := sim.NewR2C2(net, routing.NewTable(rc.Graph), rc.R2C2)
	for _, a := range rc.Arrivals {
		a := a
		eng.Schedule(a.At, func() { r.StartFlow(a.Src, a.Dst, a.SizeBytes, a.Weight, a.Priority) })
	}
	var seq [][]core.FlowInfo
	sourcing := make([]bool, rc.Graph.Nodes())
	for tick := rc.R2C2.Recompute; tick <= rc.MaxTime; tick += rc.R2C2.Recompute {
		eng.Run(tick - 1)
		clear(sourcing)
		done := 0
		for _, rec := range r.Ledger() {
			if !rec.SenderDone {
				sourcing[rec.Src] = true
			}
			if rec.Done {
				done++
			}
		}
		seen := make(map[uint64]bool)
		for n, live := range sourcing {
			if v := r.View(topology.NodeID(n)); live && !seen[v.Hash()] {
				seen[v.Hash()] = true
				seq = append(seq, v.Flows())
			}
		}
		if done == len(rc.Arrivals) {
			break
		}
	}
	return seq
}

// viewRung times call on every stride-th view of seq, in order, until the
// budget is spent, and returns the mean microseconds per call.
func viewRung(tr *tracer, parent spanID, name string, seq [][]core.FlowInfo, stride int, budget time.Duration, call func(v *core.View, sorted []core.FlowInfo)) float64 {
	sp := tr.start(parent, name)
	calls, spent := 0, time.Duration(0)
	for i := 0; i < len(seq) && spent < budget; i += stride {
		v := core.NewView()
		for _, f := range seq[i] {
			v.AddFlow(f)
		}
		t := time.Now()
		call(v, seq[i])
		spent += time.Since(t)
		calls++
	}
	tr.end(sp, calls)
	if calls == 0 {
		return 0
	}
	return float64(spent.Nanoseconds()) / 1e3 / float64(calls)
}

func ladderCore(in *ladderInput, evs []flowEvent, infos []core.FlowInfo, tab *routing.Table, tr *tracer, parent spanID, out map[string]float64) {
	bcasts := make([]*wire.Broadcast, len(evs))
	for i, ev := range evs {
		if ev.finish {
			bcasts[i] = infos[ev.flow].FinishBroadcast(0)
		} else {
			bcasts[i] = infos[ev.flow].StartBroadcast(0)
		}
	}
	out["core.view_apply_ns"] = rung(tr, parent, "core.View.Apply", func() int {
		v := core.NewView()
		return untilBudget(len(bcasts), 400_000, func(i int) {
			if err := v.Apply(bcasts[i%len(bcasts)]); err != nil {
				panic(err) // start and finish are known events
			}
		})
	})

	var seq [][]core.FlowInfo
	if in.r2c2 != nil {
		sp := tr.start(parent, "sim.replay-views")
		seq = recomputedViews(*in.r2c2)
		tr.end(sp, len(seq))
	} else {
		seq = in.tickViews(evs, infos)
	}
	out["core.replayed_views"] = float64(len(seq))

	// Compute keeps delta state from call to call, so it sees every view in
	// order and gets a second's budget; the stateless rungs sample.
	rc := core.NewRateComputer(tab, in.linkBits, headroom)
	out["core.compute_us"] = viewRung(tr, parent, "core.RateComputer.Compute", seq, 1, time.Second,
		func(v *core.View, _ []core.FlowInfo) { rc.Compute(v) })
	stride := 1 + len(seq)/64
	out["core.compute_full_us"] = viewRung(tr, parent, "core.RateComputer.ComputeFull", seq, stride, rungBudget,
		func(v *core.View, _ []core.FlowInfo) { rc.ComputeFull(v) })

	// The aggregated control plane's tick: every rack summarises the flows
	// it sources, the summaries merge, the root computes. Flow IDs are
	// source-prefixed and racks are contiguous node ranges, so walking the
	// sorted view feeds each rack's summary in ascending order.
	racks := in.g.Racks()
	if racks < 1 {
		racks = 1
	}
	sums := make([]core.DemandSummary, racks)
	root := core.NewRateComputer(tab, in.linkBits, headroom)
	out["core.summary_us"] = viewRung(tr, parent, "core.DemandSummary+ComputeSummary", seq, stride, rungBudget,
		func(_ *core.View, sorted []core.FlowInfo) {
			for i := range sums {
				sums[i].Reset()
			}
			for _, f := range sorted {
				r := 0
				if racks > 1 {
					r = in.g.RackOf(f.Src)
				}
				sums[r].Add(f)
			}
			for i := 1; i < racks; i++ {
				sums[0].Merge(&sums[i])
			}
			root.ComputeSummary(&sums[0])
		})
}

func ladderSim(in *ladderInput, infos []core.FlowInfo, tab *routing.Table, rng *rand.Rand, tr *tracer, parent spanID, out map[string]float64) {
	// The wheel alone: self-re-arming timers at periods spread over three
	// wheel levels, no network, no transport.
	out["sim.engine_ns_per_event"] = rung(tr, parent, "sim.Engine.Run", func() int {
		eng := &sim.Engine{}
		for j := 0; j < 64; j++ {
			period := simtime.Time(j+1) * 37 * simtime.Nanosecond
			var fn func()
			fn = func() { eng.After(period, fn) }
			eng.After(period, fn)
		}
		const fires = 500_000
		for eng.Processed() < fires {
			eng.Run(eng.Now() + simtime.Millisecond)
		}
		return int(eng.Processed())
	})

	// Forwarding with no transport: the workload's data packets, built here,
	// on sampled routes, delivered to a stub. Paths are sampled outside the
	// timed region (routing.sample_path_ns has them); a batch is small
	// enough that no port queue can overflow.
	{
		eng := &sim.Engine{}
		net := sim.NewNetwork(in.g, eng, fabric)
		delivered := 0
		net.Deliver = func(topology.NodeID, *sim.Packet) { delivered++ }
		const batch, target = 256, 300_000
		sp := tr.start(parent, "sim.Network.Inject+Run")
		hops, spent := 0, time.Duration(0)
		pkts := make([]*sim.Packet, batch)
		for i := 0; hops < target && spent < rungBudget; {
			for j := range pkts {
				f, id := in.flows[i%len(in.flows)], infos[i%len(in.flows)].ID
				i++
				pkts[j] = &sim.Packet{Kind: sim.KindData, SizeBytes: sim.MTU, Payload: sim.MaxPayload,
					Flow: id, Src: f.src, Dst: f.dst,
					Path: tab.AppendPath(nil, routing.RPS, f.src, f.dst, rng)}
				hops += len(pkts[j].Path)
			}
			t := time.Now()
			for _, p := range pkts {
				net.Inject(p)
			}
			eng.Run(eng.Now() + 10*simtime.Millisecond)
			spent += time.Since(t)
		}
		tr.end(sp, hops)
		if net.TotalDrops() == 0 && hops > 0 {
			out["sim.net_ns_per_hop"] = float64(spent.Nanoseconds()) / float64(hops)
		}
	}

	// Flooding with no view: broadcasts from the workload's sources, next
	// hops served by the broadcast FIB, delivered to a stub at every node.
	if in.r2c2 != nil {
		eng := &sim.Engine{}
		net := sim.NewNetwork(in.g, eng, fabric)
		fib := topology.NewBroadcastFIB(in.g, in.trees, in.seed)
		deliveries := 0
		net.Deliver = func(topology.NodeID, *sim.Packet) { deliveries++ }
		net.NextBroadcastHops = func(at topology.NodeID, pkt *sim.Packet) []topology.LinkID {
			hops, _ := fib.NextHops(pkt.Src, pkt.Bcast.Tree, at)
			return hops
		}
		for i := range in.flows { // build the trees outside the timed region
			for t := 0; t < in.trees; t++ {
				fib.Tree(in.flows[i].src, uint8(t))
			}
		}
		const batch, target = 8, 300_000
		sp := tr.start(parent, "sim.Network.InjectBroadcast+Run")
		spent := time.Duration(0)
		for i := 0; deliveries < target && spent < rungBudget; {
			t := time.Now()
			for j := 0; j < batch; j++ {
				info := infos[i%len(infos)]
				b := info.StartBroadcast(uint8(i % in.trees))
				i++
				net.InjectBroadcast(info.Src, &sim.Packet{Kind: sim.KindBroadcast, SizeBytes: sim.BroadcastBytes,
					Flow: info.ID, Src: info.Src, Bcast: b})
			}
			eng.Run(eng.Now() + simtime.Millisecond)
			spent += time.Since(t)
		}
		tr.end(sp, deliveries)
		if deliveries > 0 {
			out["sim.bcast_ns_per_delivery"] = float64(spent.Nanoseconds()) / float64(deliveries)
		}
	}
}

// pacedRateRatio is the emulator's other use, pacing fidelity: flows on a
// second rack whose 400 Mbps token buckets do sleep, achieved rate over the
// rate the allocator grants a lone flow, median over the flows. A
// burst-dequeue change must not break it.
func pacedRateRatio(in *ladderInput, tr *tracer, parent spanID, out *repOut) error {
	const linkMbps, flows, flowBytes = 400, 20, 1 << 20
	src, dst := in.flows[0].src, in.flows[0].dst
	tab := routing.NewTable(in.g)
	ideal := waterfill.NewAllocator(waterfill.Config{NumLinks: in.g.NumLinks(), Capacity: linkMbps * 1e6, Headroom: headroom}).
		Allocate([]waterfill.Flow{{Phi: tab.Phi(routing.RPS, src, dst), Weight: 1, Demand: waterfill.Unlimited}})[0]

	rack, err := emu.New(emu.Config{Graph: in.g, LinkMbps: linkMbps, Seed: subSeed(in.seed, seedEmu)})
	if err != nil {
		return err
	}
	rack.Start()
	defer rack.Stop()
	sp := tr.start(parent, "emu.paced-flows")
	ratios := make([]float64, flows)
	for i := range ratios {
		f, err := rack.StartFlow(src, dst, flowBytes, 1, 0)
		if err == nil {
			err = f.Wait(flowTimeout)
		}
		if err != nil {
			return fmt.Errorf("paced flow %d: %w", i, err)
		}
		ratios[i] = f.Throughput() / ideal
	}
	tr.end(sp, flows)
	ratio := median(ratios) // one flow stalled by a late OS timer does not decide it
	out.Layer["emu.paced_rate_ratio"] = ratio
	// Only overshoot fails the run: a sender beating its token bucket is a
	// pacing fault whatever the host does, while a low ratio is also what a
	// box whose CPU is being stolen reads (0.5 at 66 % steal on the recording
	// box, against 0.93 when quiet), so the low side is reported, not failed.
	if ratio > 1.05 {
		out.failf("emu.paced_rate_ratio %.3f: flows ran faster than the allocator's rate", ratio)
	}
	return nil
}
