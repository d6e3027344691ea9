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
	sample := func(name string, s interface {
		Len() int
		Values() []float64
	}) {
		fmt.Fprintf(&b, "%s n=%d %v\n", name, s.Len(), s.Values())
	}
	sample("shortFCT", &res.ShortFCT)
	sample("longTput", &res.LongThroughput)
	sample("allFCT", &res.AllFCT)
	sample("maxQueue", &res.MaxQueue)
	sample("reorder", &res.Reorder)
	return b.Bytes()
}

// TestRunTwiceByteIdentical is the determinism regression for the sorted
// flow-map iterations (det-map-iter): recomputeTick and rerouteNow walk
// per-node flow maps, and event scheduling order assigns the (at,seq)
// FIFO tie-break, so an unsorted walk would let two identically seeded
// runs diverge. The fault schedule makes rerouteNow fire; the recompute
// interval keeps the periodic allocator walking multi-flow maps.
func TestRunTwiceByteIdentical(t *testing.T) {
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
	cfg := func() RunConfig {
		return RunConfig{
			Graph:     g,
			Net:       NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond},
			Transport: TransportR2C2,
			R2C2: R2C2Config{
				Headroom: 0.05, Protocol: routing.RPS,
				Recompute: 100 * simtime.Microsecond,
				Reliable:  true, RTO: 300 * simtime.Microsecond,
			},
			Arrivals: trafficgen.FixedSize(trafficgen.PoissonConfig{
				Nodes:        g.Nodes(),
				MeanInterval: 300 * simtime.Microsecond,
				Count:        40,
				Seed:         7,
			}, 256<<10),
			Faults:  sched,
			MaxTime: 200 * simtime.Millisecond,
		}
	}

	first := Run(cfg())
	if first.FailureReroutes == 0 || first.Recomputations == 0 {
		t.Fatalf("workload too weak to exercise the sorted iterations: reroutes=%d recomputations=%d",
			first.FailureReroutes, first.Recomputations)
	}
	a := dumpResults(first)
	b := dumpResults(Run(cfg()))
	if !bytes.Equal(a, b) {
		line := 1
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				break
			}
			if a[i] == '\n' {
				line++
			}
		}
		t.Fatalf("two runs of one configuration diverged (first differing line %d)\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			line, a, b)
	}
}
