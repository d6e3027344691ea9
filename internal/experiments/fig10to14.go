package experiments

import (
	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/stats"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// TransportRun holds one simulated run's results under one transport.
type TransportRun struct {
	Transport sim.Transport
	Results   *sim.Results
}

// transportOrder is the fixed transport sequence of the §5.2 comparison.
var transportOrder = []sim.Transport{sim.TransportR2C2, sim.TransportTCP, sim.TransportPFQ}

// runConfig is one run of the heavy-tailed §5.2 workload under transport
// tr. The graph is shared: it is immutable once built, so configurations
// can run concurrently.
func runConfig(g *topology.Graph, s Config, tr sim.Transport, arrivals []trafficgen.Arrival, headroom float64, rho simtime.Time) sim.RunConfig {
	return sim.RunConfig{
		Graph:     g,
		Net:       sim.NetConfig{LinkGbps: s.LinkGbps, PropDelay: s.PropLat},
		Transport: tr,
		R2C2: sim.R2C2Config{
			Headroom:  headroom,
			Recompute: rho,
			Protocol:  routing.RPS,
			Seed:      s.Seed,
			Reliable:  s.Reliable,
		},
		PFQSeed:  s.Seed,
		Arrivals: arrivals,
		MaxTime:  arrivals[len(arrivals)-1].At + simtime.Second,
	}
}

// transportConfigs builds one RunConfig per transport at inter-arrival
// time tau, all replaying one workload.
func transportConfigs(g *topology.Graph, s Config, tau simtime.Time, headroom float64, rho simtime.Time) []sim.RunConfig {
	arrivals := s.workload(g, tau)
	cfgs := make([]sim.RunConfig, 0, len(transportOrder))
	for _, tr := range transportOrder {
		cfgs = append(cfgs, runConfig(g, s, tr, arrivals, headroom, rho))
	}
	return cfgs
}

// Fig10Result holds the short-flow FCT CDFs (Figure 10) and long-flow
// throughput CDFs (Figure 11).
type Fig10Result struct {
	Runs []TransportRun
}

// Fig10and11 runs the τ=1 µs (scaled) comparison of Figures 10 and 11: the
// same workload under R2C2, TCP and PFQ, on s.Parallel workers.
func Fig10and11(s Config, tau simtime.Time) *Fig10Result {
	results := RunParallel(s.Parallel, transportConfigs(s.Torus(), s, tau, 0.05, 500*simtime.Microsecond))
	res := &Fig10Result{}
	for i, out := range results {
		res.Runs = append(res.Runs, TransportRun{Transport: transportOrder[i], Results: out})
	}
	return res
}

// ShortFCTTable renders Figure 10 as CDF percentile rows.
func (r *Fig10Result) ShortFCTTable() *Table {
	return r.cdfTable("Figure 10: FCT, short flows (<100KB), seconds",
		func(res *sim.Results) *stats.Sample { return &res.ShortFCT })
}

// LongThroughputTable renders Figure 11 as CDF percentile rows.
func (r *Fig10Result) LongThroughputTable() *Table {
	return r.cdfTable("Figure 11: average throughput, long flows (>1MB), bits/s",
		func(res *sim.Results) *stats.Sample { return &res.LongThroughput })
}

// cdfTable renders one sample of every transport's run as percentile rows.
func (r *Fig10Result) cdfTable(title string, sample func(*sim.Results) *stats.Sample) *Table {
	t := &Table{Title: title, Header: []string{"percentile"}}
	for _, run := range r.Runs {
		t.Header = append(t.Header, run.Transport.String())
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99} {
		row := []string{f2(p)}
		for _, run := range r.Runs {
			row = append(row, g3(sample(run.Results).Percentile(p)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig12to14Result is one row per inter-arrival time τ: 99th-percentile
// short-flow FCT and mean long-flow throughput for each transport
// (normalised against TCP in the rendering, as Figures 12/13 do), plus the
// R2C2 queue-occupancy percentiles of Figure 14.
type Fig12to14Result struct {
	Taus []simtime.Time
	// Indexed [tau][transport] in transportOrder.
	FCT99   [][]float64
	LongAvg [][]float64
	// R2C2 max-queue stats per tau (bytes).
	QueueP50, QueueP99 []float64
}

// Fig12to14 sweeps τ and collects everything Figures 12, 13 and 14 plot.
// The full sweep — every (τ, transport) point — is flattened into one batch
// of independent runs executing on s.Parallel workers.
func Fig12to14(s Config, taus []simtime.Time) *Fig12to14Result {
	g := s.Torus()
	var cfgs []sim.RunConfig
	for _, tau := range taus {
		cfgs = append(cfgs, transportConfigs(g, s, tau, 0.05, 500*simtime.Microsecond)...)
	}
	results := RunParallel(s.Parallel, cfgs)

	res := &Fig12to14Result{Taus: taus}
	for ti := range taus {
		var fcts, longs []float64
		for tri, tr := range transportOrder {
			out := results[ti*len(transportOrder)+tri]
			fcts = append(fcts, out.ShortFCT.Percentile(99))
			longs = append(longs, out.LongThroughput.Mean())
			if tr == sim.TransportR2C2 {
				res.QueueP50 = append(res.QueueP50, out.MaxQueue.Percentile(50))
				res.QueueP99 = append(res.QueueP99, out.MaxQueue.Percentile(99))
			}
		}
		res.FCT99 = append(res.FCT99, fcts)
		res.LongAvg = append(res.LongAvg, longs)
	}
	return res
}

// Fig12Table renders 99th-pct short-flow FCT normalised against TCP.
func (r *Fig12to14Result) Fig12Table() *Table {
	return r.normTable("Figure 12: 99th-pct short-flow FCT normalised to TCP", r.FCT99)
}

// Fig13Table renders mean long-flow throughput normalised against TCP.
func (r *Fig12to14Result) Fig13Table() *Table {
	return r.normTable("Figure 13: long-flow throughput normalised to TCP", r.LongAvg)
}

// normTable renders v[tau][transport] normalised against TCP.
func (r *Fig12to14Result) normTable(title string, v [][]float64) *Table {
	t := &Table{Title: title, Header: []string{"tau", "R2C2", "TCP", "PFQ"}}
	for i, tau := range r.Taus {
		tcp := v[i][1]
		t.AddRow(tau.String(), f3(safeDiv(v[i][0], tcp)), "1.000", f3(safeDiv(v[i][2], tcp)))
	}
	return t
}

// Fig14Table renders the R2C2 max-queue-occupancy percentiles.
func (r *Fig12to14Result) Fig14Table() *Table {
	t := &Table{Title: "Figure 14: R2C2 max queue occupancy (bytes)",
		Header: []string{"tau", "median", "p99"}}
	for i, tau := range r.Taus {
		t.AddRow(tau.String(), f2(r.QueueP50[i]), f2(r.QueueP99[i]))
	}
	return t
}

// Fig17Result is the headroom sensitivity study of Figure 17.
type Fig17Result struct {
	Headrooms []float64
	FCT99     []float64 // 99th-pct short-flow FCT (Figure 17a)
	LongAvg   []float64 // mean long-flow throughput (Figure 17b)
}

// Fig17 sweeps the headroom parameter for R2C2 at fixed τ; the sweep
// points run concurrently on s.Parallel workers.
func Fig17(s Config, tau simtime.Time, headrooms []float64) *Fig17Result {
	g := s.Torus()
	arrivals := s.workload(g, tau)
	cfgs := make([]sim.RunConfig, len(headrooms))
	for i, h := range headrooms {
		cfgs[i] = runConfig(g, s, sim.TransportR2C2, arrivals, h, 500*simtime.Microsecond)
	}
	res := &Fig17Result{Headrooms: headrooms}
	for _, out := range RunParallel(s.Parallel, cfgs) {
		res.FCT99 = append(res.FCT99, out.ShortFCT.Percentile(99))
		res.LongAvg = append(res.LongAvg, out.LongThroughput.Mean())
	}
	return res
}

// Table renders Figure 17.
func (r *Fig17Result) Table() *Table {
	t := &Table{Title: "Figure 17: headroom sensitivity (R2C2)",
		Header: []string{"headroom", "fct99-short (s)", "mean-long (bit/s)"}}
	for i, h := range r.Headrooms {
		t.AddRow(f2(h), g3(r.FCT99[i]), g3(r.LongAvg[i]))
	}
	return t
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
