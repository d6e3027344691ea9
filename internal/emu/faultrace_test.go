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

	// The schedule has settled once every event has been injected and a
	// swap has covered the last injection. How many swaps that took is the
	// host scheduler's business: a starved detection timer fires after the
	// next injection and one swap covers both, a starved injector runs late
	// and a wave the schedule fires together takes two. Only the bounds and
	// the failure state the swaps end on are promised.
	events := sched.Sorted()
	want := uint64(len(events)) // Generate emits flaps, repairs and a crash: every event reroutes
	settled := func() (injected, covered uint64) {
		r.faultMu.Lock()
		defer r.faultMu.Unlock()
		return r.faultSeq, r.coveredSeq
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if injected, covered := settled(); injected == want && covered == want {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if injected, covered := settled(); injected != want || covered != want {
		t.Fatalf("schedule did not settle: %d events injected, %d covered by a swap, want %d of each (%d injection errors)\nschedule:\n%s",
			injected, covered, want, r.FaultErrors(), sched)
	}
	if got := r.Reroutes(); got < 1 || got > want {
		t.Fatalf("reroutes = %d, want between 1 and %d (one per event at most)\nschedule:\n%s", got, want, sched)
	}
	wantLinks, wantDead := make([]bool, g.NumLinks()), make([]bool, g.Vertices())
	for _, ev := range events {
		switch ev.Kind {
		case faults.LinkDown:
			for _, lid := range r.cableLinks(ev.A, ev.B) {
				wantLinks[lid] = true
			}
		case faults.LinkRepair:
			for _, lid := range r.cableLinks(ev.A, ev.B) {
				wantLinks[lid] = false
			}
		case faults.NodeDown:
			wantDead[ev.Node] = true
			for _, lid := range slices.Concat(g.Out(ev.Node), g.In(ev.Node)) {
				wantLinks[lid] = true
			}
		default:
			t.Fatalf("schedule event %v does not reroute; count it out of want", ev)
		}
	}
	r.faultMu.Lock()
	if !slices.Equal(r.failedLinks, wantLinks) || !slices.Equal(r.deadNodes, wantDead) {
		t.Errorf("failure state after the schedule: links %v nodes %v, want links %v nodes %v",
			r.failedLinks, r.deadNodes, wantLinks, wantDead)
	}
	r.faultMu.Unlock()
	if completed.Load() == 0 {
		t.Fatal("no flow completed while the schedule replayed")
	}
	if disrupted.Load() == 0 {
		t.Fatal("no flow was disrupted — traffic never raced a swap; strengthen the schedule")
	}
	t.Logf("completed=%d disrupted=%d reroutes=%d", completed.Load(), disrupted.Load(), r.Reroutes())
}
