package sim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// dumpResults renders a Results to a canonical byte form: every flow
// record in creation order, every sample's exact values, every counter.
// Two runs of the same configuration must produce equal dumps.
func dumpResults(res *Results) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "transport=%v completed=%d incomplete=%d events=%d hops=%d end=%d\n",
		res.Transport, res.Completed, res.Incomplete, res.Events, res.Hops, res.EndTime)
	fmt.Fprintf(&b, "reroutes=%d drops=%d retx=%d bcast=%d recomp=%d rounds=%d\n",
		res.FailureReroutes, res.Drops, res.Retransmissions, res.BcastBytes,
		res.Recomputations, res.RecomputeRounds)
	for _, rec := range res.Flows {
		fmt.Fprintf(&b, "flow %d %d->%d size=%d start=%d fin=%d done=%v rcvd=%d sdone=%v\n",
			rec.ID, rec.Src, rec.Dst, rec.SizeBytes, rec.Started, rec.Finished,
			rec.Done, rec.BytesRcvd, rec.SenderDone)
	}
	sample := func(name string, s interface{ Values() []float64 }) {
		vs := s.Values()
		fmt.Fprintf(&b, "%s n=%d %v\n", name, len(vs), vs)
	}
	sample("shortFCT", &res.ShortFCT)
	sample("longTput", &res.LongThroughput)
	sample("allFCT", &res.AllFCT)
	sample("maxQueue", &res.MaxQueue)
	sample("reorder", &res.Reorder)
	return b.Bytes()
}

// determinismConfig is the faulted, reliable R2C2 run the determinism
// tests share: a 2x2x2 torus whose seeded schedule flaps two cables and
// crashes a node, under a dense Poisson load (up to 17 live flows on one
// node) so that reroutes re-announce several flows per node and recompute
// ticks re-arm several senders per node. prio maps an arrival's index to
// its priority class.
func determinismConfig(t *testing.T, prio func(i int) uint8) RunConfig {
	t.Helper()
	g, err := topology.NewTorus(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Generate(g, faults.GenConfig{
		Seed:    42,
		Horizon: 10 * time.Millisecond,
		Flaps:   2,
		Crash:   true,
		DownFor: 2 * time.Millisecond,
		Detect:  200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := trafficgen.FixedSize(trafficgen.PoissonConfig{
		Nodes:        g.Nodes(),
		MeanInterval: 20 * simtime.Microsecond,
		Count:        200,
		Seed:         7,
	}, 256<<10)
	for i := range arrivals {
		arrivals[i].Priority = prio(i)
	}
	return RunConfig{
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
		MaxTime:  200 * simtime.Millisecond,
	}
}

// TestRunTwiceByteIdentical is the determinism regression for every loop
// whose order feeds the event schedule: reroute re-announces each node's
// live flows, recomputeTick re-arms each node's senders, and scheduling
// order assigns the (at, seq) FIFO tie-break, so a walk in map order would
// let identically seeded runs diverge. Go randomises every map iteration,
// so each configuration runs several times in one process; one run of
// each uses two priority classes, whose rates differ per flow.
func TestRunTwiceByteIdentical(t *testing.T) {
	const runs = 4
	for _, tc := range []struct {
		name string
		prio func(i int) uint8
	}{
		{"one-class", func(int) uint8 { return 0 }},
		{"two-classes", func(i int) uint8 { return uint8(i % 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := Run(determinismConfig(t, tc.prio))
			if first.FailureReroutes == 0 || first.Recomputations == 0 {
				t.Fatalf("workload too weak to exercise the ordered loops: reroutes=%d recomputations=%d",
					first.FailureReroutes, first.Recomputations)
			}
			a := dumpResults(first)
			for range runs - 1 {
				b := dumpResults(Run(determinismConfig(t, tc.prio)))
				if !bytes.Equal(a, b) {
					t.Fatalf("two runs of one configuration diverged (first differing line %d)",
						firstDiffLine(a, b))
				}
			}
		})
	}
}

// TestAckToCrashedSource: a reliable receiver must not ack a flow whose
// source has crashed. Under this load node 1 crashes at 6.356 ms and one
// of its data packets reaches node 7 after the reroute, which left no
// route back to node 1: acking it panicked with "routing: no minimal
// successor".
func TestAckToCrashedSource(t *testing.T) {
	res := Run(determinismConfig(t, func(i int) uint8 { return uint8(i % 3 / 2) }))
	if res.FailureReroutes == 0 {
		t.Fatal("the schedule never rerouted")
	}
}
