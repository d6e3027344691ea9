package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"r2c2/internal/emu"
	"r2c2/internal/sim"
	"r2c2/internal/topology"
)

// repOptions selects what one rep does. A rep is one set-up plus one timed
// run of a workload; the benchmark runs each in a process of its own.
type repOptions struct {
	seed      int64
	scale     float64
	rep       int
	traced    bool      // record spans, write bench/out/trace-<workload>.json
	ladder    bool      // replay the layer ladder after the run (traced pass)
	serial    bool      // run a sharded workload with Shards = 1
	spawnedAt time.Time // when the parent started this process
	outDir    string
}

// repOut is what one rep reports to the parent, as one line of JSON.
type repOut struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	SetupS    float64  `json:"setup_s"`
	WallS     float64  `json:"wall_s"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	CPUS      float64  `json:"cpu_s"`
	Offered   int      `json:"offered"`
	Completed int      `json:"completed"`
	Failures  []string `json:"failures,omitempty"` // output checks that failed
	// Digest covers every simulated flow's (id, size, start, finish) and
	// the exact counters; empty on the emulator, which is not deterministic.
	Digest string `json:"digest,omitempty"`
	// FctP50Us is the median flow completion time in microseconds: simulated
	// time on sim workloads, host time from StartFlow to Wait's return on emu
	// workloads.
	FctP50Us float64 `json:"fct_p50_us"`
	// Layer holds the per-layer values this rep measured: counters of the
	// run and, after a ladder, the per-call costs.
	Layer map[string]float64 `json:"layer"`
	// LatUs are the per-flow latencies of an emu rep, pooled by the parent.
	LatUs []float64 `json:"lat_us,omitempty"`
}

func (o *repOut) failf(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// runRep runs one rep of w in this process.
func runRep(w *workload, opt repOptions) (*repOut, error) {
	tr := newTracer(opt.traced)
	out := &repOut{Workload: w.name, Traced: opt.traced, Layer: make(map[string]float64)}
	var lad *ladderInput
	var err error
	if w.sim != nil {
		lad, err = simRep(w, opt, tr, out)
	} else {
		lad, err = emuRep(w, opt, tr, out)
	}
	if err != nil {
		return nil, err
	}
	if opt.ladder && len(out.Failures) == 0 { // a failed rep's flows are no input to replay
		sp := tr.start(0, "ladder")
		runLadder(lad, tr, sp, out.Layer)
		if w.emu != nil {
			if err := pacedRateRatio(lad, tr, sp, out); err != nil {
				return nil, err
			}
		}
		tr.end(sp, 1)
	}
	out.PeakRSSMB, out.CPUS = processUsage()
	if err := tr.write(opt.outDir, w.name, opt.seed, opt.rep); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return out, nil
}

func buildGraph(w *workload, tr *tracer, setup spanID) (*topology.Graph, error) {
	sp := tr.start(setup, "topology.graph")
	defer tr.end(sp, 1)
	return w.graph()
}

// count scales a workload's flow count, keeping enough flows for the
// percentiles and the ladder to have inputs.
func (o *repOptions) count(n int) int {
	if m := int(float64(n) * o.scale); m > 16 {
		return m
	}
	return 16
}

// memDelta reports the allocations and collections between two snapshots.
func memDelta(m0, m1 *runtime.MemStats) (allocs, mb, gcs float64) {
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, float64(m1.NumGC - m0.NumGC)
}

// processUsage returns this process's peak resident set in MB and its
// user+system CPU seconds. The peak comes from VmHWM, which belongs to this
// program's own address space; ru_maxrss would also cover the parent's
// resident set at the moment it forked this process.
func processUsage() (peakRSSMB, cpuS float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		peakRSSMB = float64(ru.Maxrss) / 1024 // KB on Linux
	}
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if i := bytes.Index(status, []byte("VmHWM:")); i >= 0 {
			fields := bytes.Fields(status[i+len("VmHWM:"):])
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(string(fields[0]), 64); err == nil {
					peakRSSMB = kb / 1024
				}
			}
		}
	}
	return peakRSSMB, cpuS
}

// simRep sets a sim workload up, times its sim.Run calls and checks the
// results. setup_s ends, and wall_s starts, at the first sim.Run call:
// sim.Run builds its routing.Table, FIB and phi cache lazily on every call,
// users pay that on every run, so it belongs to wall_s.
func simRep(w *workload, opt repOptions, tr *tracer, out *repOut) (*ladderInput, error) {
	setup := tr.start(0, "setup")
	g, err := buildGraph(w, tr, setup)
	if err != nil {
		return nil, err
	}
	sp := tr.start(setup, "trafficgen.Poisson")
	plan := w.sim(g, opt.seed, opt.count)
	tr.end(sp, 1)
	if opt.serial {
		plan.workers = 1
		for i := range plan.runs {
			plan.runs[i].Shards = 0
		}
	}
	tr.end(setup, 1)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	out.SetupS = start.Sub(opt.spawnedAt).Seconds()
	run := tr.start(0, "run")
	results := make([]*sim.Results, len(plan.runs))
	for i, rc := range plan.runs {
		sp := tr.start(run, "sim.Run/"+rc.Transport.String())
		t := time.Now()
		results[i] = sim.Run(rc)
		out.Layer["sim."+strings.ToLower(rc.Transport.String())+"_wall_s"] = time.Since(t).Seconds()
		tr.end(sp, 1)
	}
	out.WallS = time.Since(start).Seconds()
	tr.end(run, 1)
	runtime.ReadMemStats(&m1)

	l := out.Layer
	l["sim.allocs_per_run"], l["sim.alloc_mb_per_run"], l["sim.gc_cycles"] = memDelta(&m0, &m1)
	l["sim.shard_workers"] = float64(plan.workers)
	digest := sha256.New()
	var fct []float64
	for i, res := range results {
		out.Offered += len(plan.runs[i].Arrivals)
		out.Completed += res.Completed
		if res.Completed != len(plan.runs[i].Arrivals) {
			out.failf("%s: %d of %d flows completed", res.Transport, res.Completed, len(plan.runs[i].Arrivals))
		}
		if res.Drops != 0 {
			out.failf("%s: %d drops", res.Transport, res.Drops)
		}
		digestResults(digest, res)
		for _, s := range res.AllFCT.Values() {
			fct = append(fct, s*1e6)
		}
		l["sim.events"] += float64(res.Events)
		l["sim.recomputations"] += float64(res.Recomputations)
		l["sim.recompute_rounds"] += float64(res.RecomputeRounds)
		l["sim.bcast_bytes"] += float64(res.BcastBytes)
		l["sim.drops"] += float64(res.Drops)
		l["sim.tcp_retransmissions"] += float64(res.Retransmissions)
		if q := res.MaxQueue.Percentile(99); q > l["sim.max_queue_p99_bytes"] {
			l["sim.max_queue_p99_bytes"] = q
		}
		if res.Reorder.Len() > 0 {
			l["sim.reorder_p95_pkts"] = res.Reorder.Percentile(95)
		}
		shardStats(res.ShardStats, out.WallS, l)
		countWork(plan.g, &plan.runs[i], res, l)
	}
	if rounds := l["sim.recompute_rounds"]; rounds > 0 {
		l["sim.recomputes_per_round"] = l["sim.recomputations"] / rounds
	}
	l["sim.ns_per_event"] = out.WallS * 1e9 / l["sim.events"]
	out.Digest = hex.EncodeToString(digest.Sum(nil)[:16])
	out.FctP50Us = median(fct)
	l["sim.fct_p95_us"], l["sim.fct_p99_us"] = percentile(fct, 95), percentile(fct, 99)
	l["sim.fct_samples"] = float64(len(fct))

	return simLadderInput(w, plan, results[0], opt.seed), nil
}

// countWork counts the work a run offered each layer, from its inputs: data
// packets (one path sample each under R2C2), packet-hops (minimal routes, so
// Dist hops per packet; TCP and reliable R2C2 return one ack per packet),
// and broadcast deliveries (every wire traversal plus the origin's own).
func countWork(g *topology.Graph, rc *sim.RunConfig, res *sim.Results, l map[string]float64) {
	acked := rc.Transport == sim.TransportTCP || (rc.Transport == sim.TransportR2C2 && rc.R2C2.Reliable)
	for _, f := range res.Flows {
		pkts := float64(dataPackets(f.SizeBytes))
		hops := pkts * float64(g.Dist(f.Src, f.Dst))
		if acked {
			hops *= 2
		}
		l["sim.data_pkts"] += pkts
		l["sim.pkt_hops"] += hops
	}
	if rc.Transport == sim.TransportR2C2 {
		l["sim.bcast_deliveries"] += float64(res.BcastBytes)/sim.BroadcastBytes + 2*float64(len(res.Flows))
	}
}

// shardStats folds a sharded run's per-shard wall-clock statistics into the
// sharding metrics. wait_frac is the share of workers x wall_s not spent
// inside run phases: barrier, drain and orchestration.
func shardStats(stats []sim.ShardStat, wallS float64, l map[string]float64) {
	if len(stats) == 0 {
		return
	}
	var busy, ctrl, maxBusy float64
	for _, st := range stats {
		b := float64(st.BusyNs) / 1e9
		busy += b
		ctrl += float64(st.CtrlNs) / 1e9
		if b > maxBusy {
			maxBusy = b
		}
		l["sim.shard_handoffs"] += float64(st.Handoffs)
	}
	l["sim.shard_busy_s"], l["sim.shard_ctrl_s"] = busy, ctrl
	l["sim.shard_wait_frac"] = 1 - busy/(l["sim.shard_workers"]*wallS)
	l["sim.shard_imbalance"] = maxBusy / (busy / float64(len(stats)))
}

// digestResults hashes what must repeat exactly: every flow's identity,
// size and simulated start and finish, and the run's exact counters.
func digestResults(h hash.Hash, res *sim.Results) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:]) // hash.Hash.Write never fails
	}
	for _, f := range res.Flows {
		put(uint64(f.ID))
		put(uint64(f.SizeBytes))
		put(uint64(f.Started))
		put(uint64(f.Finished))
	}
	put(res.Events)
	put(res.BcastBytes)
	put(res.Recomputations)
}

// emuRep builds and starts the rack, warms it up, then times a closed loop:
// plan.clients goroutines, each starting its next flow only after Wait
// returns for the previous one.
func emuRep(w *workload, opt repOptions, tr *tracer, out *repOut) (*ladderInput, error) {
	setup := tr.start(0, "setup")
	g, err := buildGraph(w, tr, setup)
	if err != nil {
		return nil, err
	}
	plan := w.emu(g, opt.seed, opt.count)
	tNew := time.Now()
	sp := tr.start(setup, "emu.New")
	rack, err := emu.New(emu.Config{Graph: plan.g, LinkMbps: plan.linkMbps, Seed: plan.seed})
	tr.end(sp, 1)
	if err != nil {
		return nil, err
	}
	sp = tr.start(setup, "emu.Start")
	rack.Start()
	tr.end(sp, 1)
	defer rack.Stop()
	out.Layer["emu.setup_ms"] = time.Since(tNew).Seconds() * 1e3
	sp = tr.start(setup, "emu.warmup")
	for i := 0; i < emuWarmupFlows; i++ {
		src, dst := plan.endpoints(i % plan.clients)
		f, err := rack.StartFlow(src, dst, plan.flowBytes, 1, 0)
		if err == nil {
			err = f.Wait(flowTimeout)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up flow %d: %w", i, err)
		}
	}
	tr.end(sp, emuWarmupFlows)
	tr.end(setup, 1)

	perClient := plan.flows / plan.clients
	total := perClient * plan.clients
	flows := make([]ladderFlow, total)
	startUs := make([]float64, total)
	errs := make([]error, plan.clients)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	out.SetupS = start.Sub(opt.spawnedAt).Seconds()
	run := tr.start(0, "run")
	var wg sync.WaitGroup
	for c := 0; c < plan.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src, dst := plan.endpoints(c)
			for i := c * perClient; i < (c+1)*perClient; i++ {
				t0 := time.Since(start)
				sp := tr.startFlow(run, "emu.StartFlow", i+1)
				f, err := rack.StartFlow(src, dst, plan.flowBytes, 1, 0)
				tr.end(sp, 1)
				t1 := time.Since(start)
				if err == nil {
					sp = tr.startFlow(run, "emu.Flow.Wait", i+1)
					err = f.Wait(flowTimeout)
					tr.end(sp, 1)
				}
				if err != nil {
					errs[c] = fmt.Errorf("flow %d: %w", i, err)
					return
				}
				flows[i] = ladderFlow{src: src, dst: dst,
					start: t0.Nanoseconds(), finish: time.Since(start).Nanoseconds(), done: true}
				startUs[i] = float64(t1-t0) / 1e3
			}
		}(c)
	}
	wg.Wait()
	out.WallS = time.Since(start).Seconds()
	tr.end(run, total)
	runtime.ReadMemStats(&m1)

	out.Offered = total
	out.LatUs = make([]float64, 0, total)
	for _, f := range flows {
		if f.done {
			out.Completed++
			out.LatUs = append(out.LatUs, float64(f.finish-f.start)/1e3)
		}
	}
	for _, err := range errs {
		if err != nil {
			out.failf("%v", err)
		}
	}
	// Drops() is reported (emu.drops), not failed: it is 0 on a quiet box,
	// but when the host steals the CPU from a link goroutine for tens of
	// milliseconds its 1,024-packet queue overflows with broadcasts (773 in
	// one rep while the recording box was being starved). A lost data packet
	// does fail the run: the emulator never retransmits, so its flow's Wait
	// times out.
	//
	// Every flow has finished, so a view entry that outlives the batch is
	// stale: today a start broadcast that loses the race against its own
	// finish on another tree stays in the view for good (the simulator keeps
	// tombstones against this, the emulator does not). Reported, not failed:
	// the benchmark's workloads are ones on which no operation fails.
	live, stale := quiesce(rack, plan.g.Nodes())
	if live != 0 {
		out.failf("%d mbuf segments still live after the batch", live)
	}
	out.Layer["emu.stale_view_entries"] = float64(stale)

	out.FctP50Us = median(out.LatUs)
	l := out.Layer
	allocs, _, _ := memDelta(&m0, &m1)
	l["emu.allocs_per_flow"] = allocs / float64(total)
	l["emu.start_flow_us"] = median(startUs)
	l["emu.flows_per_s"] = float64(total) / out.WallS
	l["emu.goodput_MBps"] = float64(total) * float64(plan.flowBytes) / 1e6 / out.WallS
	pktHops := 0.0
	for c := 0; c < plan.clients; c++ {
		src, dst := plan.endpoints(c)
		pktHops += float64(perClient) * float64(dataPackets(plan.flowBytes)) * float64(plan.g.Dist(src, dst))
	}
	l["emu.ns_per_pkt_hop"] = out.WallS * 1e9 / pktHops
	mb := rack.MbufStats()
	l["emu.mbuf_peak_live"], l["emu.mbuf_allocs"], l["emu.mbuf_released"] = float64(mb.PeakLive), float64(mb.Allocs), float64(mb.Released)
	queues := rack.MaxQueueBytes()
	qs := make([]float64, len(queues))
	for i, q := range queues {
		qs[i] = float64(q)
	}
	l["emu.max_queue_p99_bytes"] = percentile(qs, 99)
	l["emu.drops"] = float64(rack.Drops())

	// emu.Config's defaults: two broadcast trees per source, rho = 2 ms.
	return &ladderInput{
		g: plan.g, mkGraph: w.graph, trees: 2, emu: true, linkBits: plan.linkMbps * 1e6,
		tick: (2 * time.Millisecond).Nanoseconds(), flows: flows, seed: opt.seed,
	}, nil
}

// flowTimeout bounds one emulated flow: the slowest takes milliseconds, and
// the emulator never retransmits, so a flow that lost a data packet would
// otherwise hold its client for as long as the timeout lasts.
const flowTimeout = 10 * time.Second

// endpoints places client c at node c, sending half-way across the rack.
func (p *emuPlan) endpoints(c int) (src, dst topology.NodeID) {
	return topology.NodeID(c), topology.NodeID(c + p.g.Nodes()/2)
}

// dataPackets is how many MTU packets carry a flow of the given size, on the
// simulator and the emulator alike.
func dataPackets(bytes int64) int64 { return (bytes + sim.MaxPayload - 1) / sim.MaxPayload }

// quiesce waits (at most five seconds) until every mbuf segment is back in
// the pool, which means no packet, and so no broadcast, is still in flight.
// It returns the segments still live and the view entries left at all nodes.
func quiesce(rack *emu.Rack, nodes int) (live int64, views int) {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		if live = rack.MbufStats().Live; live == 0 || time.Now().After(deadline) {
			break
		}
	}
	for n := 0; n < nodes; n++ {
		views += rack.ViewLen(topology.NodeID(n))
	}
	return live, views
}
