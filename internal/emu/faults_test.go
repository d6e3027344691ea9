package emu

import (
	"testing"
	"time"

	"r2c2/internal/core"
	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// waitReroutes polls until the rack has performed at least n fabric swaps.
func waitReroutes(t *testing.T, r *Rack, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.Reroutes() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("reroutes = %d, want >= %d", r.Reroutes(), n)
}

func fabricHasCable(r *Rack, a, b topology.NodeID) bool {
	g := r.fabric.Load().Tab.Graph()
	_, ok := g.LinkBetween(a, b)
	return ok
}

// Link failure, reroute, and repair (§3.2 plus its recovery half): after
// the detection delay the fabric swaps to a degraded graph, flows route
// around the dead cable and complete; after the repair's detection delay
// the fabric re-expands and uses the cable again.
func TestEmuFailAndRepairLink(t *testing.T) {
	r := newRack(t, Config{LinkMbps: 200, Recompute: time.Millisecond, Protocol: routing.RPS})
	if err := r.InjectFault(faults.Event{Kind: faults.LinkDown, A: 0, B: 1, Detect: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := r.InjectFault(faults.Event{Kind: faults.LinkDown, A: 0, B: 1, Detect: time.Millisecond}); err == nil {
		t.Fatal("re-failing a dead cable should error")
	}
	waitReroutes(t, r, 1)
	if fabricHasCable(r, 0, 1) || fabricHasCable(r, 1, 0) {
		t.Fatal("degraded fabric still contains the failed cable")
	}
	ab, _ := r.cfg.Graph.LinkBetween(0, 1)
	if !r.ports[ab].dead.Load() {
		t.Fatal("failed port not dark")
	}
	// A neighbour flow across the dead cable completes on detour paths.
	f, err := r.StartFlow(0, 1, 256<<10, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if q := r.MaxQueueBytes()[ab]; q != 0 {
		t.Fatalf("dead cable queued %d bytes", q)
	}

	if err := r.InjectFault(faults.Event{Kind: faults.LinkRepair, A: 0, B: 1, Detect: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := r.InjectFault(faults.Event{Kind: faults.LinkRepair, A: 0, B: 1, Detect: time.Millisecond}); err == nil {
		t.Fatal("repairing a healthy cable should error")
	}
	waitReroutes(t, r, 2)
	st := r.fabric.Load()
	if !fabricHasCable(r, 0, 1) {
		t.Fatal("repaired cable missing from the re-expanded fabric")
	}
	if st.LinkMap != nil {
		t.Fatal("fully repaired fabric should drop the link-ID translation")
	}
	f2, err := r.StartFlow(0, 1, 256<<10, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// Broadcast forwarding over a degraded fabric translates each tree hop to
// its physical port as it goes, in the caller's stack buffer, so a delivery
// costs no allocation however broken the rack is.
func TestForwardBroadcastDegradedAllocFree(t *testing.T) {
	g, err := topology.NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop) // joins InjectFault's detection timer; the rack never starts
	if err := r.InjectFault(faults.Event{Kind: faults.LinkDown, A: 0, B: 1, Detect: time.Hour}); err != nil {
		t.Fatal(err)
	}
	r.swapFabric()
	if r.fabric.Load().LinkMap == nil {
		t.Fatal("want a degraded fabric")
	}
	checkForwardBroadcastAllocFree(t, r)
}

// On the intact fabric the FIB appends a node's tree hops into a stack
// buffer of forwardBroadcast's: a delivery costs no allocation.
func TestForwardBroadcastAllocFree(t *testing.T) {
	g, err := topology.NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	if r.fabric.Load().LinkMap != nil {
		t.Fatal("intact fabric carries a link translation")
	}
	checkForwardBroadcastAllocFree(t, r)
}

// checkForwardBroadcastAllocFree forwards a broadcast of node 0's tree 0 at
// its root: every tree hop must reach its physical port, and a delivery must
// not allocate.
func checkForwardBroadcastAllocFree(t *testing.T, r *Rack) {
	t.Helper()
	st := r.fabric.Load()
	const src = topology.NodeID(0)
	hops, ok := st.Fib.NextHops(src, 0, src)
	if !ok || len(hops) == 0 {
		t.Fatalf("want tree hops at the root: %v", hops)
	}
	seg := r.pool.get()
	pkt := emuPkt{buf: seg.data[:16], seg: seg}
	// The rack never starts, so nothing drains the ports' channels.
	before := make([]int, len(r.ports))
	for i, p := range r.ports {
		before[i] = len(p.ch)
	}
	r.forwardBroadcast(src, src, 0, pkt, nil)
	for _, lid := range hops {
		phys := lid
		if st.LinkMap != nil {
			phys = st.LinkMap[lid]
		}
		if len(r.ports[phys].ch) != before[phys]+1 {
			t.Fatalf("tree hop %d not forwarded on its physical port %d", lid, phys)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.forwardBroadcast(src, src, 0, pkt, nil) }); allocs != 0 {
		t.Fatalf("forwardBroadcast: %v allocations per delivery, want 0", allocs)
	}
}

// A whole broadcast hop at a node that is not the flood's origin allocates
// nothing: Rack.receive decodes into a stack Broadcast, applies it to the
// node's view and fans it out. Each run is a start and a finish of a new
// flow of node 0, taken at node 5 of an idle rack with its ports drained
// after each call.
func TestReceiveBroadcastAllocFree(t *testing.T) {
	r := idleRack(t)
	const src, at = 0, topology.NodeID(5)
	start := wire.Broadcast{Event: wire.EventFlowStart, Src: src, Dst: 10, Weight: 1, DemandKbps: core.UnlimitedDemand}
	finish := start
	finish.Event = wire.EventFlowFinish
	hop := func() {
		start.FlowSeq++
		finish.FlowSeq = start.FlowSeq
		receiveBcast(r, at, &start)
		if r.ViewLen(at) != 1 {
			t.Fatalf("flow %v not held at node %d", start.Flow(), at)
		}
		receiveBcast(r, at, &finish)
	}
	hop()
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 || r.Drops() != 0 {
		t.Fatalf("a broadcast hop: %v allocations per start and finish, %d drops; want 0 and 0", allocs, r.Drops())
	}
}

// Overlapping failures with interleaved detection windows — the emulator
// side of the sim's headline regression: the later-firing detection must
// not install a fabric computed before the second failure, and the epoch
// guard collapses both injections into one swap.
func TestEmuOverlappingFailures(t *testing.T) {
	r := newRack(t, Config{LinkMbps: 200, Recompute: time.Millisecond, Protocol: routing.RPS})
	if err := r.InjectFault(faults.Event{Kind: faults.LinkDown, A: 0, B: 1, Detect: 300 * time.Millisecond}); err != nil { // slow detection
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := r.InjectFault(faults.Event{Kind: faults.LinkDown, A: 2, B: 3, Detect: 20 * time.Millisecond}); err != nil { // fast detection
		t.Fatal(err)
	}
	waitReroutes(t, r, 1)
	if fabricHasCable(r, 0, 1) || fabricHasCable(r, 2, 3) {
		t.Fatal("first swap must exclude BOTH failed cables")
	}
	time.Sleep(400 * time.Millisecond) // the slow detection window passes
	if got := r.Reroutes(); got != 1 {
		t.Fatalf("reroutes = %d, want 1 (stale detection rebuilt the fabric)", got)
	}
	if fabricHasCable(r, 0, 1) || fabricHasCable(r, 2, 3) {
		t.Fatal("stale detection resurrected a failed cable")
	}
}

// Node crash: the dead node's flows are abandoned (Wait errors), purged
// from every surviving view, and a survivor flow completes.
func TestEmuFailNode(t *testing.T) {
	r := newRack(t, Config{LinkMbps: 200, Recompute: time.Millisecond, Protocol: routing.RPS})
	fromDead, err := r.StartFlow(5, 10, 64<<20, 1, 0) // far larger than the crash window
	if err != nil {
		t.Fatal(err)
	}
	toDead, err := r.StartFlow(0, 5, 64<<20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The survivor must still be running when the swap lands: a flow that
	// finishes inside the detection window floods its finish broadcast on
	// the pre-failure trees, where the dark ports eat it — by design, only
	// ongoing flows are re-announced after a swap (sim behaves the same).
	survivor, err := r.StartFlow(1, 2, 8<<20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // views see all three flows
	if err := r.InjectFault(faults.Event{Kind: faults.NodeDown, Node: 5, Detect: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := r.InjectFault(faults.Event{Kind: faults.NodeDown, Node: 5, Detect: time.Millisecond}); err == nil {
		t.Fatal("double crash should error")
	}
	waitReroutes(t, r, 1)
	if err := fromDead.Wait(5 * time.Second); err == nil {
		t.Fatal("flow sourced at the dead node cannot complete")
	}
	if !fromDead.Abandoned() || !toDead.Abandoned() {
		t.Fatal("flows involving the dead node not abandoned")
	}
	if err := survivor.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Surviving views drain the dead node's flows (and eventually the
	// completed survivor too).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		clean := true
		for n := 0; n < r.cfg.Graph.Nodes(); n++ {
			if n == 5 {
				continue
			}
			if r.ViewLen(topology.NodeID(n)) != 0 {
				clean = false
				break
			}
		}
		if clean {
			return
		}
		time.Sleep(time.Millisecond)
	}
	for n := 0; n < r.cfg.Graph.Nodes(); n++ {
		if n != 5 && r.ViewLen(topology.NodeID(n)) != 0 {
			t.Fatalf("node %d still holds purged flows in its view", n)
		}
	}
}

// Flows started toward a crashed endpoint are abandoned at birth, and a
// crashed node cannot source new flows. Under DOR, whose next hop toward a
// node with no links panics, node 2 computes rates while an abandoned flow
// floods: no view may ever hold it.
func TestEmuAbandonAtBirth(t *testing.T) {
	for _, p := range []routing.Protocol{routing.RPS, routing.DOR} {
		t.Run(p.String(), func(t *testing.T) { testAbandonAtBirth(t, p) })
	}
}

func testAbandonAtBirth(t *testing.T, p routing.Protocol) {
	r := newRack(t, Config{LinkMbps: 200, Recompute: time.Millisecond, Protocol: p})
	if err := r.InjectFault(faults.Event{Kind: faults.NodeDown, Node: 5, Detect: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	waitReroutes(t, r, 1)
	f, err := r.StartFlow(0, 5, 1<<20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Abandoned() {
		t.Fatal("flow to a crashed node not abandoned at birth")
	}
	if err := f.Wait(time.Second); err == nil {
		t.Fatal("Wait on an abandoned flow must error")
	}
	if r.ViewLen(0) != 0 {
		t.Fatal("abandoned-at-birth flow leaked into the source view")
	}

	// An abandoned flow still takes its sequence number's turn in every
	// live view: it clears the record of the finished flow half the sequence
	// space before it, whose wrapped-around successor is then held at its
	// origin and elsewhere.
	g, err := r.StartFlow(0, 1, 64<<10, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); r.ViewLen(0) != 0 || r.ViewLen(2) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the origin never finished its flow, or node 2 never saw the finish")
		}
	}
	if _, err := r.StartFlow(2, 3, 64<<20, 1, 0); err != nil { // node 2 computes rates throughout
		t.Fatal(err)
	}
	start := func(seq uint16, dst topology.NodeID) *Flow {
		n := r.nodes[0]
		n.mu.Lock()
		n.nextSeq = seq
		n.mu.Unlock()
		f, err := r.StartFlow(0, dst, 64<<20, 1, 0) // outlives the checks
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if f := start(g.Info().ID.Seq()+0x8000, 5); !f.Abandoned() {
		t.Fatal("flow to a crashed node not abandoned at birth")
	}
	wrapped := start(g.Info().ID.Seq(), 1).Info().ID
	if _, ok := r.FlowDemandAt(0, wrapped); !ok {
		t.Fatalf("flow %v, wrapped around, is not held at its origin", wrapped)
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := r.FlowDemandAt(2, wrapped); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flow %v, wrapped around, never reached node 2's view", wrapped)
		}
	}
	time.Sleep(5 * time.Millisecond) // node 2 recomputes over its view
	if n := r.ViewLen(2); n != 2 {
		t.Fatalf("node 2 holds %d flows; want its own and the wrapped one", n)
	}
}

// pickRobustSchedule scans seeds for a generated schedule whose detection
// fires all land at least `margin` of wall clock away from every injection
// time. Schedule.Waves models exact times, but the emulator replays the
// schedule in real time: when a fire and an injection fall within
// goroutine-wakeup jitter of each other, which injections the fire covers
// — and therefore the realised reroute count — becomes a race (the old
// fixed seed 11 put a repair injection ~1.1 ms after a fire and flaked
// under load). The scan is deterministic, so the test still runs one fixed
// schedule; it is just one whose expected wave count has real slack.
func pickRobustSchedule(t *testing.T, g *topology.Graph, cfg faults.GenConfig, margin time.Duration) faults.Schedule {
	t.Helper()
	for seed := int64(1); seed <= 500; seed++ {
		cfg.Seed = seed
		sched, err := faults.Generate(g, cfg)
		if err != nil {
			continue
		}
		events := sched.Sorted()
		ok := true
		for _, a := range events {
			if a.Kind == faults.LinkDrop {
				continue // never fires a rebuild
			}
			fire := a.At + a.Detect
			for _, b := range events {
				if b.Kind == faults.LinkDrop {
					continue
				}
				d := fire - b.At
				if d < 0 {
					d = -d
				}
				if d < margin {
					ok = false
				}
			}
		}
		if ok {
			t.Logf("robust schedule: seed %d, margin >= %v:\n%s", seed, margin, sched)
			return sched
		}
	}
	t.Fatalf("no schedule with %v fire/injection margin in 500 seeds", margin)
	return faults.Schedule{}
}

// A full schedule replayed on the emulator: the swap count matches the
// schedule's expected wave count and every event injects cleanly.
func TestEmuApplyFaults(t *testing.T) {
	g, err := topology.NewTorus(2, 3) // the 8-node rack
	if err != nil {
		t.Fatal(err)
	}
	sched := pickRobustSchedule(t, g, faults.GenConfig{
		Horizon: 80 * time.Millisecond,
		Flaps:   2,
		Crash:   true,
		DownFor: 30 * time.Millisecond,
		Detect:  10 * time.Millisecond,
	}, 5*time.Millisecond)
	r := newRack(t, Config{Graph: g, LinkMbps: 100, Recompute: time.Millisecond, Protocol: routing.RPS})
	r.ApplyFaults(sched)
	deadline := time.Now().Add(10 * time.Second)
	want := uint64(sched.Waves())
	for time.Now().Before(deadline) && r.Reroutes() < want {
		time.Sleep(time.Millisecond)
	}
	// Give any stale detection timers time to (incorrectly) fire.
	time.Sleep(100 * time.Millisecond)
	if got := r.Reroutes(); got != want {
		t.Fatalf("reroutes = %d, want %d (schedule waves)\nschedule:\n%s", got, want, sched)
	}
	if errs := r.FaultErrors(); errs != 0 {
		t.Fatalf("%d schedule events failed to inject", errs)
	}
}
