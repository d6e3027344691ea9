package experiments

import (
	"time"

	"r2c2/internal/core"
	"r2c2/internal/fluid"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/stats"
	"r2c2/internal/wire"
)

// AtomSlowdown stands in for the Intel Atom D510 of Figure 8. The paper's
// measurements put the first-generation Atom at roughly 20x the per-
// recomputation cost of the Xeon E5-2665 (median 33.5% vs 1.7% at
// ρ = 500 µs); lacking the physical part, we report host-CPU times scaled
// by this factor (see DESIGN.md, Substitutions).
const AtomSlowdown = 20.0

// Fig8Result records, per recomputation interval ρ, the distribution of
// CPU overhead: the wall-clock cost of one rate recomputation divided by ρ
// (so values above 1.0 mean the interval is infeasible).
type Fig8Result struct {
	Rhos []simtime.Time
	// Host-CPU overhead fractions ("Xeon-class" in the paper's setup) of
	// the from-scratch water-filling; the table scales them by
	// AtomSlowdown for the Atom columns.
	MedianHost, P99Host []float64
	// MeanFlows is the average number of flows per recomputation (the
	// batch filter drops flows shorter than ρ, which is why large ρ cost
	// less).
	MeanFlows []float64
}

// Fig8 measures recomputation cost over a replayed flow trace: the fluid
// model provides each flow's lifetime; at every tick of ρ, the rate
// computation runs over the flows alive at that instant that have lasted
// at least one full interval (§3.3.2's batch filter), and its wall-clock
// time is measured.
func Fig8(s Config, tau simtime.Time, rhos []simtime.Time, maxTicks int) *Fig8Result {
	g := s.Torus()
	tab := routing.NewTable(g)
	arrivals := s.workload(g, tau)
	// One fluid pass yields every flow's [start, end) interval.
	fc := fluidConfig(s, tab)
	fc.Recompute = simtime.FromSeconds(core.DefaultRho.Seconds())
	lifetimes := fluid.Run(fc, arrivals)

	// §4.2: the prototype precomputes the per-{protocol, destination}
	// link-weight vectors (<6 MB per protocol), so recomputation cost is
	// the water-filling itself. Warm the φ cache over every pair the trace
	// uses before timing anything.
	for _, a := range arrivals {
		tab.Phi(routing.RPS, a.Src, a.Dst)
	}

	var end simtime.Time
	for _, fr := range lifetimes.Flows {
		if fr.Ended > end {
			end = fr.Ended
		}
	}
	res := &Fig8Result{Rhos: rhos, MedianHost: make([]float64, len(rhos)),
		P99Host: make([]float64, len(rhos)), MeanFlows: make([]float64, len(rhos))}
	// Each ρ gets its own RateComputer (a computer's scratch is not safe
	// for concurrent use); the per-ρ replays are independent and run on
	// s.Parallel workers. Note this is a wall-clock measurement: on a loaded
	// machine, parallel replays contend for cores and can inflate the
	// measured cost.
	parallelFor(s.Parallel, len(rhos), func(ri int) {
		rho := rhos[ri]
		rc := core.NewRateComputer(tab, s.LinkGbps*1e9, 0.05)
		var overhead stats.Sample
		var flowsPerTick stats.Sample
		ticks := 0
		for t := rho; t < end && ticks < maxTicks; t += rho {
			view := core.NewView()
			for i, fr := range lifetimes.Flows {
				if fr.Started <= t-rho && fr.Ended > t { // alive for >= one interval
					a := arrivals[i]
					view.AddFlow(core.FlowInfo{
						ID:         wire.MakeFlowID(uint16(a.Src), uint16(i)),
						Src:        a.Src,
						Dst:        a.Dst,
						Weight:     1,
						DemandKbps: core.UnlimitedDemand,
						Protocol:   routing.RPS,
					})
				}
			}
			start := time.Now()
			rc.ComputeFull(view)
			cost := time.Since(start).Seconds()
			overhead.Add(cost / rho.Seconds())
			flowsPerTick.Add(float64(view.Len()))
			ticks++
		}
		res.MedianHost[ri] = overhead.Median()
		res.P99Host[ri] = overhead.Percentile(99)
		res.MeanFlows[ri] = flowsPerTick.Mean()
	})
	return res
}

// Table renders Figure 8. Intervals longer than the replayed trace have no
// ticks to measure and render as "n/a".
func (r *Fig8Result) Table() *Table {
	t := &Table{Title: "Figure 8: CPU overhead of rate recomputation",
		Header: []string{"rho", "flows/tick", "full-median", "full-p99", "atom-median", "atom-p99"}}
	for i, rho := range r.Rhos {
		if r.MeanFlows[i] != r.MeanFlows[i] { // NaN: no ticks sampled
			t.AddRow(rho.String(), "n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		t.AddRow(rho.String(), f2(r.MeanFlows[i]),
			pct(r.MedianHost[i]), pct(r.P99Host[i]),
			pct(r.MedianHost[i]*AtomSlowdown), pct(r.P99Host[i]*AtomSlowdown))
	}
	return t
}

func pct(v float64) string { return f2(v*100) + "%" }
