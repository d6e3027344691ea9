package emu

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

func newRack(t *testing.T, cfg Config) *Rack {
	t.Helper()
	if cfg.Graph == nil {
		g, err := topology.NewTorus(4, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Graph = g
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Stop)
	return r
}

func TestEmuSingleFlowCompletes(t *testing.T) {
	r := newRack(t, Config{LinkMbps: 200, Recompute: time.Millisecond, Protocol: routing.RPS})
	f, err := r.StartFlow(0, 5, 256<<10, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Throughput() <= 0 || f.FCT() <= 0 {
		t.Fatalf("throughput=%v fct=%v", f.Throughput(), f.FCT())
	}
	// A lone RPS flow should achieve a solid fraction of the headroom-
	// adjusted link rate (wall-clock jitter allows slack).
	if f.Throughput() < 0.4*200e6 {
		t.Fatalf("throughput = %.3g, want > 80 Mbps", f.Throughput())
	}
}

func TestEmuGlobalVisibilityAndCleanup(t *testing.T) {
	r := newRack(t, Config{LinkMbps: 200, Protocol: routing.RPS})
	f, err := r.StartFlow(0, 5, 2<<20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Broadcasts settle within milliseconds of wall time.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for n := 0; n < r.cfg.Graph.Nodes(); n++ {
			if r.ViewLen(topology.NodeID(n)) != 1 {
				all = false
				break
			}
		}
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for n := 0; n < r.cfg.Graph.Nodes(); n++ {
		if got := r.ViewLen(topology.NodeID(n)); got != 1 {
			t.Fatalf("node %d sees %d flows while flow active", n, got)
		}
	}
	if err := f.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// After the finish broadcast, views drain.
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		empty := true
		for n := 0; n < r.cfg.Graph.Nodes(); n++ {
			if r.ViewLen(topology.NodeID(n)) != 0 {
				empty = false
				break
			}
		}
		if empty {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("views not drained after flow finish")
}

// A flow's start and finish go out on different broadcast trees, so at some
// nodes the finish arrives first. The late start must not re-enter the view:
// once every flow has finished and the fabric is quiet, no view holds
// anything. Fast links keep each flow short, so the races are frequent.
func TestRackViewsDrain(t *testing.T) {
	r := newRack(t, Config{LinkMbps: 100_000, Protocol: routing.RPS})
	nodes := r.cfg.Graph.Nodes()
	for i := 0; i < 2000; i++ {
		src := topology.NodeID(i % nodes)
		f, err := r.StartFlow(src, (src+topology.NodeID(nodes/2))%topology.NodeID(nodes), 2<<10, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Wait(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); r.MbufStats().Live != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fabric never went quiet: %+v", r.MbufStats())
		}
	}
	stale := 0
	for n := 0; n < nodes; n++ {
		stale += r.ViewLen(topology.NodeID(n))
	}
	if stale != 0 || r.Drops() != 0 {
		t.Fatalf("%d view entries outlive their flows, %d drops", stale, r.Drops())
	}
}

// The late-start rule on the receive path: a start after its own finish is
// late, the record stays with its flow, a start half the sequence space later
// clears it, late or not, and the wrapped-around sequence number then starts
// clean. A broadcast of no known event kind is dropped as corrupt.
func TestLateStartRecord(t *testing.T) {
	r := idleRack(t)
	const at = 5
	bc := func(ev wire.EventKind, seq uint16) *wire.Broadcast {
		return &wire.Broadcast{Event: ev, Src: 3, Dst: 9, FlowSeq: seq, Weight: 1, DemandKbps: 7}
	}
	has := func(seq uint16) bool {
		_, ok := r.FlowDemandAt(at, wire.MakeFlowID(3, seq))
		return ok
	}
	if receiveBcast(r, at, bc(wire.EventFlowStart, 700)); !has(700) {
		t.Fatal("a start with no finish recorded is late")
	}
	receiveBcast(r, at, bc(wire.EventFlowFinish, 700))
	if receiveBcast(r, at, bc(wire.EventFlowStart, 700)); has(700) {
		t.Fatal("a start after its finish is not late")
	}
	if receiveBcast(r, at, bc(wire.EventFlowStart, 701)); !has(701) {
		t.Fatal("the record leaks to another flow")
	}
	receiveBcast(r, at, bc(wire.EventFlowStart, 700+0x8000))
	if receiveBcast(r, at, bc(wire.EventFlowStart, 700)); !has(700) {
		t.Fatal("a start half the sequence space later did not clear the record")
	}
	if receiveBcast(r, at, bc(9, 702)); r.Drops() != 1 || r.ViewLen(at) != 3 {
		t.Fatalf("an unknown event kind: %d drops, view of %d flows; want 1 drop, 3 flows", r.Drops(), r.ViewLen(at))
	}
	// A late start clears the record half the sequence space away too.
	receiveBcast(r, at, bc(wire.EventFlowFinish, 710))
	receiveBcast(r, at, bc(wire.EventFlowFinish, 710+0x8000))
	receiveBcast(r, at, bc(wire.EventFlowStart, 710+0x8000))
	if receiveBcast(r, at, bc(wire.EventFlowStart, 710)); !has(710) || has(710+0x8000) {
		t.Fatal("a late start half the sequence space later did not clear the record, or applied")
	}
}

func TestEmuFairness(t *testing.T) {
	r := newRack(t, Config{LinkMbps: 200, Recompute: time.Millisecond, Protocol: routing.RPS})
	a, err := r.StartFlow(0, 5, 1<<20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.StartFlow(0, 5, 1<<20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	ta, tb := a.Throughput(), b.Throughput()
	if math.Abs(ta-tb)/math.Max(ta, tb) > 0.35 {
		t.Fatalf("unfair emulated throughputs: %.3g vs %.3g", ta, tb)
	}
}

func TestEmuWeightedAllocation(t *testing.T) {
	r := newRack(t, Config{LinkMbps: 200, Recompute: time.Millisecond, Protocol: routing.DOR})
	heavy, err := r.StartFlow(0, 2, 3<<20, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	light, err := r.StartFlow(0, 2, 1<<20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := heavy.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := light.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	ratio := heavy.Throughput() / light.Throughput()
	if ratio < 1.8 || ratio > 5 {
		t.Fatalf("weight-3:1 throughput ratio = %.2f, want ~3", ratio)
	}
}

// New rejects every configuration that would otherwise panic later, inside
// a goroutine or a constructor, or run with a meaningless setting.
func TestEmuValidation(t *testing.T) {
	g, err := topology.NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"nil graph", Config{}},
		{"negative LinkMbps", Config{Graph: g, LinkMbps: -1}},
		{"NaN LinkMbps", Config{Graph: g, LinkMbps: math.NaN()}},
		{"+Inf LinkMbps", Config{Graph: g, LinkMbps: math.Inf(1)}},
		{"-Inf LinkMbps", Config{Graph: g, LinkMbps: math.Inf(-1)}},
		{"negative Headroom", Config{Graph: g, Headroom: -0.1}},
		{"Headroom 1", Config{Graph: g, Headroom: 1}},
		{"NaN Headroom", Config{Graph: g, Headroom: math.NaN()}},
		{"negative Recompute", Config{Graph: g, Recompute: -time.Millisecond}},
		{"unknown Protocol", Config{Graph: g, Protocol: routing.Protocol(200)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if r, err := New(tc.cfg); err == nil {
				r.Start()
				r.Stop()
				t.Fatalf("accepted %+v", tc.cfg)
			}
		})
	}
	r := newRack(t, Config{})
	if _, err := r.StartFlow(1, 1, 100, 1, 0); err == nil {
		t.Error("src==dst accepted")
	}
	if _, err := r.StartFlow(0, 1, 0, 1, 0); err == nil {
		t.Error("zero size accepted")
	}
}

// Stop must join every goroutine the rack launched: link and recompute
// loops, flow senders, the fault replay and its detection timers. Both
// fault goroutines are still blocked at Stop — the replay waits an hour
// for its second event, the first event's detection timer an hour too.
func TestRackStopJoinsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	g, err := topology.NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Graph: g, LinkMbps: 200, Recompute: time.Millisecond, Protocol: routing.RPS})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	for i := 0; i < 4; i++ {
		if _, err := r.StartFlow(topology.NodeID(i), topology.NodeID(i+5), 8<<20, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	r.ApplyFaults(faults.Schedule{Events: []faults.Event{
		{Kind: faults.LinkDown, A: 2, B: 3, Detect: time.Hour},
		{At: time.Hour, Kind: faults.LinkRepair, A: 2, B: 3, Detect: time.Millisecond},
	}})
	down, _ := g.LinkBetween(2, 3)
	for deadline := time.Now().Add(2 * time.Second); !r.ports[down].dead.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the schedule's first event never injected")
		}
	}
	r.Stop()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Stop, %d before New:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// Stop cancels the rack and then wakes each link through its own port with
// a sentinel that the link drains up to. Each case must return within a
// second (a deadlock fails it rather than hanging), join every goroutine the
// rack launched, and leave no segment live once the ports are drained: a
// packet forwarded into a port whose link had already returned stays there.
// No sentinel may be left over: a link returns only when it takes its own.
// At 0.01 Mbps a 1,500-byte packet paces for 1.2 s, so a link that waits out
// its sleep, or returns on cancellation and leaves its port full, fails.
func TestRackStopProtocol(t *testing.T) {
	const slowMbps = 0.01
	for _, tc := range []struct {
		name     string
		linkMbps float64
		run      func(t *testing.T, r *Rack)
	}{
		{"full port", slowMbps, func(t *testing.T, r *Rack) {
			r.Start()
			// The link takes one packet into its 1.2 s pacing sleep first,
			// so it takes none while the port fills.
			sendJunk(r, 0, 1)
			for len(r.ports[0].ch) > 0 {
				time.Sleep(time.Millisecond)
			}
			if n := fillPort(r, 0); n != queuePackets {
				t.Errorf("port holds %d packets, want %d", n, queuePackets)
			}
			r.Stop()
		}},
		{"pacing sleep", slowMbps, func(t *testing.T, r *Rack) {
			r.Start()
			for lid := range r.ports {
				sendJunk(r, topology.LinkID(lid), 2)
			}
			// Every link has taken its first packet into a 1.2 s sleep.
			for _, p := range r.ports {
				for len(p.ch) > 1 {
					time.Sleep(time.Millisecond)
				}
			}
			r.Stop()
		}},
		{"before start", 0, func(t *testing.T, r *Rack) {
			fillPort(r, 0) // no link will ever drain it
			r.Stop()
			r.Start() // launches nothing: the goroutine count holds it
		}},
		{"twice", 0, func(t *testing.T, r *Rack) {
			r.Start()
			r.Stop()
			fillPort(r, 0) // a second round of sentinels would block here
			r.Stop()
		}},
		{"wait and start after stop", 0, func(t *testing.T, r *Rack) {
			r.Start()
			f, err := r.StartFlow(0, 5, 64<<20, 1, 0)
			if err != nil {
				t.Error(err)
				return
			}
			time.Sleep(10 * time.Millisecond)
			r.Stop()
			t0 := time.Now()
			err = f.Wait(2 * time.Second)
			if took := time.Since(t0); err == nil || !strings.Contains(err.Error(), "rack stopped") || took > 100*time.Millisecond {
				t.Errorf("Wait after Stop: %v after %v; want a stopped-rack error at once", err, took)
			}
			if !f.Abandoned() {
				t.Error("an unfinished flow is not abandoned by Stop")
			}
			if _, err := r.StartFlow(0, 5, 2048, 1, 0); err == nil {
				t.Error("StartFlow on a stopped rack")
			}
			if _, err := r.StartHostLimitedFlow(0, 5, 2048, 1, 0, 1e6); err == nil {
				t.Error("StartHostLimitedFlow on a stopped rack")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			g, err := topology.NewTorus(4, 2)
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(Config{Graph: g, LinkMbps: tc.linkMbps, Protocol: routing.RPS})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				tc.run(t, r)
			}()
			select {
			case <-done:
			case <-time.After(time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("not done within 1s:\n%s", buf[:runtime.Stack(buf, true)])
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines after Stop, %d before New:\n%s",
						runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
			}
			sentinels := 0
			for _, p := range r.ports {
				for len(p.ch) > 0 {
					pkt := <-p.ch
					if pkt.seg == nil {
						sentinels++
					}
					r.pool.release(nil, pkt)
				}
			}
			if live := r.MbufStats().Live; live != 0 || sentinels != 0 {
				t.Fatalf("after Stop and a drain of the ports: %d segments live, %d sentinels no link took; want 0 and 0", live, sentinels)
			}
		})
	}
}

// sendJunk enqueues n pooled 1,500-byte packets of no packet type on port
// lid (its link drops each one as it would a corrupt packet) and returns how
// many the port took.
func sendJunk(r *Rack, lid topology.LinkID, n int) int {
	sent := 0
	for ; sent < n; sent++ {
		seg := r.pool.get()
		seg.data[0] = 0
		if !r.enqueue(lid, emuPkt{buf: seg.data[:1500], seg: seg}, nil) {
			break
		}
	}
	return sent
}

// fillPort enqueues junk on port lid until the port drops one, and returns
// how many packets it then holds.
func fillPort(r *Rack, lid topology.LinkID) int {
	for sendJunk(r, lid, 1) == 1 {
	}
	return len(r.ports[lid].ch)
}

func TestEmuQueueStats(t *testing.T) {
	r := newRack(t, Config{LinkMbps: 100, Protocol: routing.DOR})
	f, err := r.StartFlow(0, 1, 512<<10, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	max := r.MaxQueueBytes()
	if len(max) != r.cfg.Graph.NumLinks() {
		t.Fatalf("queue stats size %d", len(max))
	}
	any := false
	for _, m := range max {
		if m > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no port ever held a queued packet")
	}
}

// TestEmuDataPathDoesNotAllocate gates the emulator's per-packet paths —
// flowSender's path sampling, route encoding and header encoding, linkLoop's
// pacing, receive's forwarding and deliverData's decode — by what the whole
// process allocates while bulk flows cross a 4×4 torus one after another.
// Links run at 100 Gbps, so no token bucket sleeps on a timer. The mbuf
// pool's misses count against the gate too: the pool is warmed with a whole
// flow's packets (how many the warm-up flow keeps live at once depends on
// how the host schedules its goroutines) plus what the caches can hold out
// of the shared list at once (a full cache per link, one sender's), its idle
// cap holds them all, so a miss after that is an allocation on the data
// path like any other.
//
// Each flow is 1,000 packets, fewer than a port queue holds, so no queue can
// overflow however the host schedules the link goroutines. Unpaced, a longer
// flow outruns its destination: the last hop's queues fill and drop (see
// ROADMAP item 10). What remains is each flow's fixed cost (its handle,
// goroutine and rng, two floods), about 0.013 per packet-hop; one
// allocation per packet reads ≥ 0.25.
func TestEmuDataPathDoesNotAllocate(t *testing.T) {
	const packets = 1000
	r := newRack(t, Config{LinkMbps: 100000, Protocol: routing.RPS})
	send := func() {
		f, err := r.StartFlow(0, 10, packets*(1500-wire.DataHeaderSize), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Wait(30 * time.Second); err != nil {
			t.Fatalf("%v (%d drops)", err, r.Drops())
		}
	}
	// Warm the views and the flow maps with one flow, and the pool with a
	// flow's packets and the segments of its floods.
	send()
	warm := make([]*mbuf, packets+64+len(r.ports)*mbufLinkCache+mbufSenderCache)
	for i := range warm {
		warm[i] = r.pool.get()
	}
	for _, m := range warm {
		r.pool.put(m)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const flows = 8
	segs := r.MbufStats().Allocs
	for i := 0; i < flows; i++ {
		send()
	}
	runtime.ReadMemStats(&after)
	// RPS routes minimally: every data packet takes Dist hops.
	segs, h := r.MbufStats().Allocs-segs, flows*packets*r.cfg.Graph.Dist(0, 10)
	if drops := r.Drops(); drops != 0 {
		t.Fatalf("%d drops: not every packet crossed the fabric", drops)
	}
	if perHop := float64(after.Mallocs-before.Mallocs) / float64(h); perHop > 0.05 || segs != 0 {
		t.Fatalf("%.4f allocations per packet-hop over %d hops, %d of them pool misses; want ≤ 0.05 and no miss",
			perHop, h, segs)
	}
}

// The rack's flow table holds unfinished flows only: a finished flow's
// entry goes with its completion, so a long run of short flows does not
// keep every handle it ever started.
func TestRackForgetsFinishedFlows(t *testing.T) {
	r := newRack(t, Config{LinkMbps: 100000, Protocol: routing.RPS})
	for i := 0; i < 200; i++ {
		f, err := r.StartFlow(topology.NodeID(i%4), topology.NodeID(10), 2048, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Wait(30 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	r.flowsMu.Lock()
	n := len(r.flows)
	r.flowsMu.Unlock()
	if n != 0 {
		t.Fatalf("flow table holds %d entries after 200 finished flows, want 0", n)
	}
}

// Links pace each packet by the simulator's serialisation time, so rates
// that do not divide a nanosecond per byte are not truncated onto faster
// ones, and links above 8 Gbps are paced at all.
func TestTransmitTimeMatchesSimulator(t *testing.T) {
	for _, c := range []struct {
		bytes    int
		linkMbps float64
		want     time.Duration
	}{
		{1500, 200, 60 * time.Microsecond},
		{1500, 3000, 4 * time.Microsecond},
		{1500, 5000, 2400 * time.Nanosecond},  // the paper's links: not 1.5 µs
		{1500, 100000, 120 * time.Nanosecond}, // not 0
		{16, 100000, time.Nanosecond},         // 1.28 ns rounds to nearest
	} {
		if got := transmitTime(c.bytes, c.linkMbps); got != c.want {
			t.Errorf("transmitTime(%d B, %v Mbps) = %v, want %v", c.bytes, c.linkMbps, got, c.want)
		}
	}
}

// FlowDemandAt reports the demand (Kbps) that a node's view holds for a
// flow, and whether the view contains the flow at all.
func (r *Rack) FlowDemandAt(node topology.NodeID, id wire.FlowID) (uint32, bool) {
	n := r.nodes[node]
	n.mu.Lock()
	flows := n.vis.AppendFlows(nil, 0)
	n.mu.Unlock()
	for _, f := range flows {
		if f.ID == id {
			return f.DemandKbps, true
		}
	}
	return 0, false
}
