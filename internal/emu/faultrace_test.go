package emu

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
)

// TestEmuFaultsUnderTraffic drives fault swaps and live traffic at the
// same time: worker goroutines keep flows in flight across every node
// pair while ApplyFaults replays a schedule of link flaps and a node
// crash against the running rack. Its purpose is the interleaving, not
// the counters — under `go test -race` it makes the detector watch
// swapFabric (atomic.Pointer store + faultMu) race against flowSender's
// fabric loads, linkLoop delivery and Flow.abort. Flows touching the
// crashed node legitimately abort or fail to start; everything else must
// keep completing through the swaps.
func TestEmuFaultsUnderTraffic(t *testing.T) {
	g, err := topology.NewTorus(2, 3) // the 8-node rack
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Generate(g, faults.GenConfig{
		Seed:    3,
		Horizon: 60 * time.Millisecond,
		Flaps:   2,
		Crash:   true,
		DownFor: 20 * time.Millisecond,
		Detect:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := newRack(t, Config{Graph: g, LinkMbps: 100, Recompute: time.Millisecond, Protocol: routing.RPS})

	// Deterministic pair list; workers stride through it so traffic covers
	// the whole rack, including pairs the schedule will break.
	var pairs [][2]topology.NodeID
	for src := 0; src < g.Nodes(); src++ {
		for dst := 0; dst < g.Nodes(); dst++ {
			if src != dst {
				pairs = append(pairs, [2]topology.NodeID{topology.NodeID(src), topology.NodeID(dst)})
			}
		}
	}

	var (
		wg        sync.WaitGroup
		stop      = make(chan struct{})
		completed atomic.Uint64
		disrupted atomic.Uint64
	)
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += workers {
				select {
				case <-stop:
					return
				default:
				}
				p := pairs[i%len(pairs)]
				f, err := r.StartFlow(p[0], p[1], 64<<10, 1, 0)
				if err != nil {
					disrupted.Add(1) // endpoint already failed
					continue
				}
				// The emulator has no end-to-end retransmission (Config doc):
				// a flow that loses bytes to a flap mid-flight never
				// completes. Aborts return immediately; the short timeout
				// only bounds those wedged-by-design flows.
				if err := f.Wait(2 * time.Second); err != nil {
					disrupted.Add(1)
					continue
				}
				completed.Add(1)
			}
		}(w)
	}

	// Let traffic ramp before the first injection so the early swaps hit
	// flows mid-flight rather than an idle fabric.
	time.Sleep(5 * time.Millisecond)
	r.ApplyFaults(sched)

	// The failure state after each event. The schedule has settled once the
	// rack holds the last of them and a swap built its fabric from it. How
	// many swaps that took is the host scheduler's business: a starved
	// detection timer fires after the next injection and one swap covers
	// both, a starved injector runs late and a wave the schedule fires
	// together takes two. Only the bounds and the final state are promised.
	events := sched.Sorted()
	links, dead := make([]bool, g.NumLinks()), make([]bool, g.Vertices())
	var states [][2][]bool
	for _, ev := range events {
		switch ev.Kind {
		case faults.LinkDown, faults.LinkRepair:
			for _, p := range [][2]topology.NodeID{{ev.A, ev.B}, {ev.B, ev.A}} {
				lid, _ := g.LinkBetween(p[0], p[1])
				links[lid] = ev.Kind == faults.LinkDown
			}
		case faults.NodeDown:
			dead[ev.Node] = true
			for _, lid := range slices.Concat(g.Out(ev.Node), g.In(ev.Node)) {
				links[lid] = true
			}
		default:
			t.Fatalf("schedule event %v does not reroute; count it out of want", ev)
		}
		states = append(states, [2][]bool{slices.Clone(links), slices.Clone(dead)})
	}
	for i, st := range states[:len(states)-1] {
		if slices.Equal(st[0], links) && slices.Equal(st[1], dead) {
			t.Fatalf("event %d already leaves the final failure state, so the rack could match it early\nschedule:\n%s", i, sched)
		}
	}
	healthy := g.NumLinks()
	for _, failed := range links {
		if failed {
			healthy--
		}
	}
	settled := func() bool {
		r.faultMu.Lock()
		defer r.faultMu.Unlock()
		l, d := r.faults.Failed()
		fab := r.fabric.Load()
		return slices.Equal(l, links) && slices.Equal(d, dead) && slices.Equal(fab.Dead, dead) && fab.Tab.Graph().NumLinks() == healthy
	}
	for deadline := time.Now().Add(10 * time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if !settled() {
		r.faultMu.Lock()
		l, d := r.faults.Failed()
		r.faultMu.Unlock()
		t.Fatalf("schedule did not settle: failure state links %v nodes %v, want links %v nodes %v, or no swap covered it (%d injection errors)\nschedule:\n%s",
			l, d, links, dead, r.FaultErrors(), sched)
	}
	if n := r.FaultErrors(); n != 0 {
		t.Fatalf("%d schedule events failed to inject\nschedule:\n%s", n, sched)
	}
	if got, want := r.Reroutes(), uint64(len(events)); got < 1 || got > want { // every event reroutes
		t.Fatalf("reroutes = %d, want between 1 and %d (one per event at most)\nschedule:\n%s", got, want, sched)
	}
	if completed.Load() == 0 {
		t.Fatal("no flow completed while the schedule replayed")
	}
	if disrupted.Load() == 0 {
		t.Fatal("no flow was disrupted — traffic never raced a swap; strengthen the schedule")
	}
	t.Logf("completed=%d disrupted=%d reroutes=%d", completed.Load(), disrupted.Load(), r.Reroutes())
}
