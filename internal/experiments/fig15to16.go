package experiments

import (
	"r2c2/internal/fluid"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/stats"
	"r2c2/internal/trafficgen"
)

// RateErrorResult records, per swept value (ρ in Figure 15, τ in Figure
// 16), the median and 95th percentile of the per-flow normalised rate
// error |r_ρ - r_0|/r_0.
type RateErrorResult struct {
	Points        []simtime.Time
	Median, P95th []float64
	title, swept  string
}

// rateError fills point i of r: the fluid model recomputing every rho
// against recomputing at every flow event, over the flows the batch design
// actually rate-limits (lifetime ≥ rho).
func (r *RateErrorResult) rateError(i int, cfg fluid.Config, arrivals []trafficgen.Arrival, ideal *fluid.Result, rho simtime.Time) {
	cfg.Recompute = rho
	var sample stats.Sample
	sample.AddAll(fluid.RateErrorFiltered(ideal, fluid.Run(cfg, arrivals), rho))
	r.Median[i], r.P95th[i] = sample.Median(), sample.Percentile(95)
}

func newRateErrorResult(points []simtime.Time, title, swept string) *RateErrorResult {
	return &RateErrorResult{Points: points, title: title, swept: swept,
		Median: make([]float64, len(points)), P95th: make([]float64, len(points))}
}

// fluidConfig is the fluid model of the torus with R2C2's 5 % headroom.
func fluidConfig(s Config, tab *routing.Table) fluid.Config {
	return fluid.Config{Tab: tab, Protocol: routing.RPS, CapacityBits: s.LinkGbps * 1e9, Headroom: 0.05}
}

// Fig15 sweeps ρ at fixed τ using the fluid model; the per-ρ fluid runs
// execute concurrently on s.Parallel workers (the routing table they share
// is internally synchronised).
func Fig15(s Config, tau simtime.Time, rhos []simtime.Time) *RateErrorResult {
	g := s.Torus()
	cfg := fluidConfig(s, routing.NewTable(g))
	arrivals := s.workload(g, tau)
	ideal := fluid.Run(cfg, arrivals)
	res := newRateErrorResult(rhos, "Figure 15: normalised rate error vs recomputation interval", "rho")
	parallelFor(s.Parallel, len(rhos), func(i int) { res.rateError(i, cfg, arrivals, ideal, rhos[i]) })
	return res
}

// Fig16 sweeps τ at fixed ρ using the fluid model; the per-τ points run
// concurrently on s.Parallel workers.
func Fig16(s Config, rho simtime.Time, taus []simtime.Time) *RateErrorResult {
	g := s.Torus()
	cfg := fluidConfig(s, routing.NewTable(g))
	res := newRateErrorResult(taus, "Figure 16: normalised rate error vs flow inter-arrival time", "tau")
	parallelFor(s.Parallel, len(taus), func(i int) {
		arrivals := s.workload(g, taus[i])
		res.rateError(i, cfg, arrivals, fluid.Run(cfg, arrivals), rho)
	})
	return res
}

// Table renders Figure 15 or 16.
func (r *RateErrorResult) Table() *Table {
	t := &Table{Title: r.title, Header: []string{r.swept, "median", "p95"}}
	for i, p := range r.Points {
		t.AddRow(p.String(), f3(r.Median[i]), f3(r.P95th[i]))
	}
	return t
}
