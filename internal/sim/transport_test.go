package sim

import (
	"math"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
	"r2c2/internal/wire"
)

// --- R2C2 transport ---

func newR2C2Net(t testing.TB, g *topology.Graph, cfg R2C2Config) (*Engine, *Network, *R2C2) {
	t.Helper()
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	tab := routing.NewTable(g)
	r := NewR2C2(net, tab, cfg)
	return eng, net, r
}

func TestR2C2SingleFlowCompletes(t *testing.T) {
	g := torus(t, 4, 2)
	eng, net, r := newR2C2Net(t, g, R2C2Config{Headroom: 0.05, Protocol: routing.RPS})
	id := r.StartFlow(0, 5, 1<<20, 1, 0)
	eng.Run(50 * simtime.Millisecond)
	rec := r.Ledger()[id]
	if !rec.Done {
		t.Fatalf("flow incomplete: %d/%d bytes", rec.BytesRcvd, rec.SizeBytes)
	}
	if net.TotalDrops() != 0 {
		t.Fatalf("drops = %d", net.TotalDrops())
	}
	// 1 MB at ~10 Gbps minus headroom and header overhead: under 2 ms.
	if rec.FCT() > 2*simtime.Millisecond {
		t.Fatalf("FCT = %v", rec.FCT())
	}
	if !rec.SenderDone {
		t.Fatal("sender not marked done")
	}
}

// Flow start events must propagate to every node's view, and finish events
// must clear them.
func TestR2C2GlobalVisibility(t *testing.T) {
	g := torus(t, 4, 2)
	eng, _, r := newR2C2Net(t, g, R2C2Config{Protocol: routing.RPS})
	id := r.StartFlow(0, 5, 10<<20, 1, 0)
	// Run long enough for the broadcast (µs) but not flow completion (ms).
	eng.Run(100 * simtime.Microsecond)
	for n := 0; n < g.Nodes(); n++ {
		if _, ok := r.View(topology.NodeID(n)).Get(id); !ok {
			t.Fatalf("node %d 	has no view of flow after 100us", n)
		}
	}
	eng.Run(100 * simtime.Millisecond)
	for n := 0; n < g.Nodes(); n++ {
		if r.View(topology.NodeID(n)).Len() != 0 {
			t.Fatalf("node %d still sees flows after finish", n)
		}
	}
}

// Two long flows sharing the fabric converge to equal rates (per-flow
// fairness) once recomputation kicks in.
func TestR2C2Fairness(t *testing.T) {
	g := torus(t, 4, 2)
	eng, _, r := newR2C2Net(t, g, R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS, Recompute: 100 * simtime.Microsecond})
	a := r.StartFlow(0, 5, 4<<20, 1, 0)
	b := r.StartFlow(0, 5, 4<<20, 1, 0) // identical endpoints: same bottleneck
	eng.Run(100 * simtime.Millisecond)
	ra, rb := r.Ledger()[a], r.Ledger()[b]
	if !ra.Done || !rb.Done {
		t.Fatal("flows incomplete")
	}
	ta, tb := ra.Throughput(), rb.Throughput()
	if math.Abs(ta-tb)/math.Max(ta, tb) > 0.1 {
		t.Fatalf("unfair throughputs: %.3g vs %.3g", ta, tb)
	}
}

// Weighted allocation: a weight-3 flow gets ~3x the rate of a weight-1 flow
// sharing its bottleneck (allocation flexibility, G4).
func TestR2C2Weights(t *testing.T) {
	g := torus(t, 4, 2)
	eng, _, r := newR2C2Net(t, g, R2C2Config{
		Headroom: 0.05, Protocol: routing.DOR, Recompute: 50 * simtime.Microsecond})
	// Same single path for both: share every link.
	heavy := r.StartFlow(0, 2, 6<<20, 3, 0)
	light := r.StartFlow(0, 2, 2<<20, 1, 0)
	eng.Run(100 * simtime.Millisecond)
	rh, rl := r.Ledger()[heavy], r.Ledger()[light]
	if !rh.Done || !rl.Done {
		t.Fatal("flows incomplete")
	}
	ratio := rh.Throughput() / rl.Throughput()
	// Both flows are sized 3:1 so they finish together under a 3:1 split.
	if ratio < 2.2 || ratio > 4 {
		t.Fatalf("weight-3 to weight-1 throughput ratio = %.2f, want ~3", ratio)
	}
}

// Priority: a high-priority flow should be unaffected by low-priority load.
func TestR2C2Priority(t *testing.T) {
	g := torus(t, 4, 2)
	eng, _, r := newR2C2Net(t, g, R2C2Config{
		Headroom: 0.05, Protocol: routing.DOR, Recompute: 50 * simtime.Microsecond})
	hi := r.StartFlow(0, 2, 2<<20, 1, 1)
	lo := r.StartFlow(0, 2, 2<<20, 1, 0)
	eng.Run(100 * simtime.Millisecond)
	rhi, rlo := r.Ledger()[hi], r.Ledger()[lo]
	if !rhi.Done || !rlo.Done {
		t.Fatal("flows incomplete")
	}
	if rhi.FCT() >= rlo.FCT() {
		t.Fatalf("high-priority FCT %v not better than low-priority %v", rhi.FCT(), rlo.FCT())
	}
}

func TestR2C2ViewCacheAmortises(t *testing.T) {
	g := torus(t, 4, 2)
	eng, _, r := newR2C2Net(t, g, R2C2Config{
		Protocol: routing.RPS, Recompute: 100 * simtime.Microsecond})
	// Many concurrent flows from different sources.
	for s := 0; s < 8; s++ {
		r.StartFlow(topology.NodeID(s), topology.NodeID(15-s), 4<<20, 1, 0)
	}
	eng.Run(20 * simtime.Millisecond)
	if r.RecomputeRounds == 0 {
		t.Fatal("no recompute rounds ran")
	}
	// With settled views, one allocator run serves all 8 source nodes:
	// recomputations must be far fewer than rounds × sources.
	if r.Recomputations >= r.RecomputeRounds*8 {
		t.Fatalf("view cache ineffective: %d computations over %d rounds for 8 sources",
			r.Recomputations, r.RecomputeRounds)
	}
}

func TestR2C2PanicsOnDegenerateFlow(t *testing.T) {
	g := torus(t, 4, 2)
	_, _, r := newR2C2Net(t, g, R2C2Config{})
	assertPanics(t, "src==dst", func() { r.StartFlow(3, 3, 100, 1, 0) })
	assertPanics(t, "zero size", func() { r.StartFlow(0, 1, 0, 1, 0) })
}

// --- TCP baseline ---

func TestTCPSingleFlowCompletes(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	tab := routing.NewTable(g)
	tcp := NewTCP(net, tab, TCPConfig{})
	id := tcp.StartFlow(0, 5, 1<<20)
	eng.Run(time500ms)
	rec := tcp.Ledger()[id]
	if !rec.Done {
		t.Fatalf("TCP flow incomplete: %d/%d", rec.BytesRcvd, rec.SizeBytes)
	}
	if !rec.SenderDone {
		t.Fatal("sender not done after all acks")
	}
}

const time500ms = 500 * simtime.Millisecond

func TestTCPRecoversFromDrops(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	// Tiny queues force drops under concurrent load.
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, QueueBytes: 8 * 1500})
	tab := routing.NewTable(g)
	tcp := NewTCP(net, tab, TCPConfig{})
	var ids []wire.FlowID
	for s := 1; s < 9; s++ {
		ids = append(ids, tcp.StartFlow(topology.NodeID(s), 0, 1<<20)) // incast at node 0
	}
	eng.Run(2 * simtime.Second)
	for _, id := range ids {
		if !tcp.Ledger()[id].Done {
			t.Fatalf("flow %v incomplete under incast: %d/%d",
				id, tcp.Ledger()[id].BytesRcvd, tcp.Ledger()[id].SizeBytes)
		}
	}
	if net.TotalDrops() == 0 {
		t.Fatal("expected drops with 8-packet queues under incast")
	}
	if tcp.Retransmissions == 0 {
		t.Fatal("drops occurred but nothing was retransmitted")
	}
}

func TestTCPSingleStreamInOrder(t *testing.T) {
	// With one flow on one path and big queues, no retransmissions happen.
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
	tab := routing.NewTable(g)
	tcp := NewTCP(net, tab, TCPConfig{})
	tcp.StartFlow(0, 5, 256<<10)
	eng.Run(time500ms)
	if tcp.Retransmissions != 0 {
		t.Fatalf("unexpected retransmissions: %d", tcp.Retransmissions)
	}
}

// --- PFQ baseline ---

func TestPFQSingleFlowCompletes(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
	tab := routing.NewTable(g)
	pfq := NewPFQ(net, tab, 1)
	id := pfq.StartFlow(0, 5, 1<<20)
	eng.Run(time500ms)
	rec := pfq.Ledger()[id]
	if !rec.Done {
		t.Fatalf("PFQ flow incomplete: %d/%d", rec.BytesRcvd, rec.SizeBytes)
	}
	if net.TotalDrops() != 0 {
		t.Fatal("PFQ must never drop (back-pressure)")
	}
}

func TestPFQFairnessUnderContention(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
	tab := routing.NewTable(g)
	pfq := NewPFQ(net, tab, 1)
	a := pfq.StartFlow(0, 2, 4<<20)
	b := pfq.StartFlow(0, 2, 4<<20)
	eng.Run(2 * simtime.Second)
	ra, rb := pfq.Ledger()[a], pfq.Ledger()[b]
	if !ra.Done || !rb.Done {
		t.Fatal("flows incomplete")
	}
	ta, tb := ra.Throughput(), rb.Throughput()
	if math.Abs(ta-tb)/math.Max(ta, tb) > 0.1 {
		t.Fatalf("PFQ unfair: %.3g vs %.3g", ta, tb)
	}
	if net.TotalDrops() != 0 {
		t.Fatal("PFQ dropped packets")
	}
}

// --- Runner ---

func smallWorkload(t testing.TB, g *topology.Graph, count int, mean simtime.Time) []trafficgen.Arrival {
	t.Helper()
	return trafficgen.Poisson(trafficgen.PoissonConfig{
		Nodes:        g.Nodes(),
		MeanInterval: mean,
		Count:        count,
		Seed:         99,
	})
}

func TestRunAllTransports(t *testing.T) {
	g := torus(t, 4, 2)
	arrivals := smallWorkload(t, g, 150, 20*simtime.Microsecond)
	for _, tr := range []Transport{TransportR2C2, TransportTCP, TransportPFQ} {
		res := Run(RunConfig{
			Graph:     g,
			Transport: tr,
			Arrivals:  arrivals,
			R2C2:      R2C2Config{Headroom: 0.05, Protocol: routing.RPS, Recompute: 100 * simtime.Microsecond},
			MaxTime:   2 * simtime.Second,
		})
		if res.Completed != len(arrivals) {
			t.Fatalf("%v: %d/%d flows completed (%d drops)", tr, res.Completed, len(arrivals), res.Drops)
		}
		if len(res.ShortFCT.Values()) == 0 {
			t.Fatalf("%v: no short-flow FCTs", tr)
		}
		if n := len(res.MaxQueue.Values()); n != g.NumLinks() {
			t.Fatalf("%v: queue sample size %d", tr, n)
		}
		if tr == TransportR2C2 && res.BcastBytes == 0 {
			t.Fatal("R2C2 run recorded no broadcast bytes")
		}
	}
}

// R2C2 should keep queues dramatically smaller than TCP under identical
// workloads — the headline claim (G3, Figures 10 & 14).
func TestR2C2BeatsTCPOnQueuingAndFCT(t *testing.T) {
	g := torus(t, 4, 2)
	arrivals := smallWorkload(t, g, 400, 10*simtime.Microsecond)
	run := func(tr Transport) *Results {
		return Run(RunConfig{
			Graph:     g,
			Transport: tr,
			Arrivals:  arrivals,
			R2C2:      R2C2Config{Headroom: 0.05, Protocol: routing.RPS, Recompute: 100 * simtime.Microsecond},
			MaxTime:   4 * simtime.Second,
		})
	}
	r2 := run(TransportR2C2)
	tcp := run(TransportTCP)
	if r2.Completed != len(arrivals) || tcp.Completed != len(arrivals) {
		t.Fatalf("incomplete runs: r2c2=%d tcp=%d of %d", r2.Completed, tcp.Completed, len(arrivals))
	}
	q2 := r2.MaxQueue.Percentile(99)
	qt := tcp.MaxQueue.Percentile(99)
	if q2 >= qt {
		t.Errorf("R2C2 99th-pct max queue %.0f not below TCP's %.0f", q2, qt)
	}
	f2 := r2.ShortFCT.Percentile(99)
	ft := tcp.ShortFCT.Percentile(99)
	if f2 >= ft {
		t.Errorf("R2C2 99th-pct short FCT %.3g not below TCP's %.3g", f2, ft)
	}
}

func TestRunValidation(t *testing.T) {
	g := torus(t, 3, 2)
	assertPanics(t, "no graph", func() { Run(RunConfig{}) })
	assertPanics(t, "no arrivals", func() { Run(RunConfig{Graph: g}) })
	assertPanics(t, "bad transport", func() {
		Run(RunConfig{Graph: g, Transport: Transport(9),
			Arrivals: smallWorkload(t, g, 1, simtime.Microsecond)})
	})
}

func TestTransportString(t *testing.T) {
	if TransportR2C2.String() != "R2C2" || TransportTCP.String() != "TCP" || TransportPFQ.String() != "PFQ" {
		t.Error("transport names wrong")
	}
	if Transport(9).String() == "" {
		t.Error("unknown transport name empty")
	}
}

func TestFlowRecordAccessors(t *testing.T) {
	rec := &FlowRecord{SizeBytes: 1000, Started: 0, Finished: simtime.Millisecond, Done: true}
	if rec.FCT() != simtime.Millisecond {
		t.Error("FCT wrong")
	}
	if math.Abs(rec.Throughput()-8e6) > 1 {
		t.Errorf("Throughput = %v", rec.Throughput())
	}
	bad := &FlowRecord{}
	assertPanics(t, "FCT incomplete", func() { bad.FCT() })
	if bad.Throughput() != 0 {
		t.Error("incomplete throughput should be 0")
	}
}

// TestSteadyDataPathDoesNotAllocate is the allocation gate of every
// transport's per-packet path (DESIGN.md §11): what the data path allocates
// once the flows are running, measured rather than inferred from the source.
// Eight long flows at line rate on a 4×4×4 torus (167 packets × 3 hops each
// per 200 µs step, twice the hops under VLB), ρ far beyond the test so no
// recomputation lands in the measurement. Nothing does: a DOR flow reuses its
// one interned path, an RPS, VLB or WLB packet samples into the buffer its
// slab carved for it, sized for the longest path the protocol can draw;
// flow-table slots, reorder windows and the reorder counters are indexed in
// place, and port queues link packets through the packets themselves. The PFQ
// baseline's rings, credit lists and queue records are reused once they have
// reached the working size.
//
// TCP and reliable R2C2 add the receive paths, which the network reaches
// through its Deliver callback: acks, reorder windows, the send-time ring
// and, on lossy links, fast retransmit and R2C2's go-back-N timeouts.
func TestSteadyDataPathDoesNotAllocate(t *testing.T) {
	if invariantsEnabled {
		t.Skip("the debug build's assertions box their arguments on every packet touch")
	}
	// steady measures one step of a warmed run.
	steady := func(t *testing.T, eng *Engine, net *Network) {
		const runs = 5
		before := net.PktHops
		allocs := testing.AllocsPerRun(runs, func() { runSteps(eng, 1) })
		hops := (net.PktHops - before) / (runs + 1) // AllocsPerRun adds a warm-up call
		if hops < 3900 {
			t.Fatalf("a step made %d hops, want ~4000 or more for the bound to mean anything", hops)
		}
		if allocs != 0 {
			t.Fatalf("%v allocations per %d-hop step, want 0", allocs, hops)
		}
	}
	// One step warms a run: the start floods over; the arenas, the wheel, the
	// reorder windows and PFQ's rings, credit lists and records reach their
	// working size.
	for _, proto := range []routing.Protocol{routing.DOR, routing.RPS, routing.VLB, routing.WLB} {
		t.Run(proto.String(), func(t *testing.T) {
			g := torus(t, 4, 3)
			eng, net, r := newR2C2Net(t, g, R2C2Config{Protocol: proto, Recompute: simtime.Second})
			startLongFlows(g, func(src, dst topology.NodeID) { r.StartFlow(src, dst, 1<<30, 1, 0) })
			runSteps(eng, 1)
			steady(t, eng, net)
		})
	}
	t.Run("PFQ", func(t *testing.T) {
		g := torus(t, 4, 3)
		eng := &Engine{}
		net := NewNetwork(g, eng, NetConfig{LinkGbps: 10})
		pfq := NewPFQ(net, routing.NewTable(g), 1)
		startLongFlows(g, func(src, dst topology.NodeID) { pfq.StartFlow(src, dst, 1<<30) })
		runSteps(eng, 1)
		steady(t, eng, net)
	})
	for _, loss := range []float64{0, 0.002} {
		name := "lossless"
		if loss > 0 {
			name = "lossy"
		}
		// retransmits checks that a lossy run recovered from loss inside the
		// measured steps, so the recovery path was measured too.
		retransmits := func(t *testing.T, before, after uint64) {
			if loss > 0 && after == before {
				t.Fatal("no retransmission inside the measured steps: the recovery path went unmeasured")
			}
		}
		t.Run("TCP/"+name, func(t *testing.T) {
			g := torus(t, 4, 3)
			eng, net := newLossyNet(g, loss)
			tcp := NewTCP(net, routing.NewTable(g), TCPConfig{})
			startLongFlows(g, func(src, dst topology.NodeID) { tcp.StartFlow(src, dst, 1<<30) })
			runSteps(eng, 1)
			before := tcp.Retransmissions
			steady(t, eng, net)
			retransmits(t, before, tcp.Retransmissions)
		})
		t.Run("Reliable/"+name, func(t *testing.T) {
			g := torus(t, 4, 3)
			eng, net := newLossyNet(g, loss)
			r := NewR2C2(net, routing.NewTable(g), R2C2Config{Protocol: routing.RPS,
				Recompute: simtime.Second, Reliable: true, RTO: 300 * simtime.Microsecond})
			startLongFlows(g, func(src, dst topology.NodeID) { r.StartFlow(src, dst, 1<<30, 1, 0) })
			// Lost packets hold up the reorder windows, which keep doubling
			// for about the first ten steps.
			if loss > 0 {
				runSteps(eng, 20)
			} else {
				runSteps(eng, 1)
			}
			before := r.Retransmissions // only a timeout re-sends a chunk
			steady(t, eng, net)
			retransmits(t, before, r.Retransmissions)
		})
	}
}

// TestTCPTimeoutDoesNotAllocate gates TCP's timeout path, which random loss
// never reaches: fast retransmit absorbs it. Once every link drops
// everything, the only packets left on the wire are the retransmissions of
// expiring timers, so the drop counter shows the timeouts firing inside the
// measured steps.
func TestTCPTimeoutDoesNotAllocate(t *testing.T) {
	if invariantsEnabled {
		t.Skip("the debug build's assertions box their arguments on every packet touch")
	}
	g := torus(t, 4, 3)
	eng, net := newLossyNet(g, 0)
	tcp := NewTCP(net, routing.NewTable(g), TCPConfig{})
	startLongFlows(g, func(src, dst topology.NodeID) { tcp.StartFlow(src, dst, 1<<30) })
	runSteps(eng, 5)
	setLinkLoss(net, 1)
	runSteps(eng, 5)
	before := net.TotalDrops()
	allocs := testing.AllocsPerRun(5, func() { runSteps(eng, 1) })
	if drops := net.TotalDrops() - before; drops == 0 {
		t.Fatal("no timeout fired inside the measured steps")
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per step of timeouts, want 0", allocs)
	}
}

// runSteps advances a run by n of the allocation gates' 200 µs steps.
func runSteps(eng *Engine, n int) {
	for i := 0; i < n; i++ {
		eng.Run(eng.Now() + 200*simtime.Microsecond)
	}
}

// startLongFlows starts the allocation gates' eight long flows, each from
// node 8i to 21 nodes on.
func startLongFlows(g *topology.Graph, start func(src, dst topology.NodeID)) {
	for i := 0; i < 8; i++ {
		src := topology.NodeID(8 * i)
		start(src, (src+21)%topology.NodeID(g.Nodes()))
	}
}

// newLossyNet builds a 10 Gbps network whose every link drops a packet with
// probability p (none when p is 0), from a fixed loss seed.
func newLossyNet(g *topology.Graph, p float64) (*Engine, *Network) {
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond, LossSeed: 1})
	setLinkLoss(net, p)
	return eng, net
}

// setLinkLoss makes every link drop a packet with probability p.
func setLinkLoss(net *Network, p float64) {
	for lid := 0; lid < net.G.NumLinks(); lid++ {
		net.SetLinkDropProb(topology.LinkID(lid), p)
	}
}

// Ledger returns the flow records by ID, for inspection and results
// collection. The map is built on every call.
func (t *TCP) Ledger() map[wire.FlowID]*FlowRecord { return t.flows.ledger() }

// Ledger returns the flow records by ID, for inspection and results
// collection. The map is built on every call.
func (p *PFQ) Ledger() map[wire.FlowID]*FlowRecord { return p.flows.ledger() }

// TestR2C2RecomputesEveryRho holds §3.3.2's batching: rates are recomputed
// once per ρ, however many flows start and finish in between.
func TestR2C2RecomputesEveryRho(t *testing.T) {
	g := torus(t, 4, 2)
	eng, _, r := newR2C2Net(t, g, R2C2Config{
		Protocol: routing.RPS, Recompute: 100 * simtime.Microsecond})
	for s := 0; s < 8; s++ {
		r.StartFlow(topology.NodeID(s), topology.NodeID(15-s), 64<<10, 1, 0)
	}
	eng.Run(20 * simtime.Millisecond)
	if r.RecomputeRounds != 200 {
		t.Fatalf("%d recompute rounds in 20 ms at ρ = 100 µs, want 200", r.RecomputeRounds)
	}
}
