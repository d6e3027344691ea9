package sim

import (
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// Randomized multi-failure soak: a seeded schedule of link flaps plus one
// node crash over the 8-node rack, with a Poisson workload arriving across
// the whole fault window. Every flow not involving the crashed node must
// complete (reliable mode retransmits across reroutes), and the number of
// fabric rebuilds must match the schedule's expected wave count exactly.
func TestFaultSoakEightNodeRack(t *testing.T) {
	g, err := topology.NewTorus(2, 3) // 8 nodes, degree 3
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Generate(g, faults.GenConfig{
		Seed:    42,
		Horizon: 20 * time.Millisecond,
		Flaps:   2,
		Crash:   true,
		DownFor: 4 * time.Millisecond,
		Detect:  200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No -short reduction: fewer flows would end the run before the later
	// faults fire (the workload must span the schedule), and the full soak
	// is already sub-second.
	arrivals := trafficgen.FixedSize(trafficgen.PoissonConfig{
		Nodes:        g.Nodes(),
		MeanInterval: 400 * simtime.Microsecond,
		Count:        60,
		Seed:         7,
	}, 256<<10)
	res := Run(RunConfig{
		Graph:     g,
		Net:       NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond},
		Transport: TransportR2C2,
		R2C2: R2C2Config{
			Headroom: 0.05, Protocol: routing.RPS,
			Recompute: 100 * simtime.Microsecond,
			Reliable:  true, RTO: 300 * simtime.Microsecond,
		},
		Arrivals: arrivals,
		Faults:   sched,
		MaxTime:  500 * simtime.Millisecond,
	})

	dead := sched.DeadNodes(g.Nodes())
	abandoned := 0
	for _, rec := range res.Flows {
		if dead[rec.Src] || dead[rec.Dst] {
			abandoned++
			continue // may complete (finished before the crash) or not
		}
		if !rec.Done {
			t.Errorf("flow %v (%d->%d) did not survive the schedule: %d/%d bytes",
				rec.ID, rec.Src, rec.Dst, rec.BytesRcvd, rec.SizeBytes)
		}
	}
	if t.Failed() {
		t.Logf("schedule:\n%s", sched)
	}
	if abandoned == 0 {
		t.Error("workload never touched the crashed node — soak too weak")
	}
	if want := uint64(sched.Waves()); res.FailureReroutes != want {
		t.Errorf("FailureReroutes = %d, want %d (schedule waves)", res.FailureReroutes, want)
	}
	if res.Drops == 0 {
		t.Error("schedule killed no packets — flaps missed all traffic?")
	}
}
