// Command r2c2-sim drives the packet-level simulator through the §5.2
// experiments: the FCT/throughput comparison against TCP and the idealised
// per-flow-queue baseline (Figures 10–13), queue occupancy (Figure 14) and
// the headroom sensitivity study (Figure 17).
//
// Usage:
//
//	r2c2-sim -fig10 -k 8 -dims 3 -flows 20000   # paper scale
//	r2c2-sim -fig12 -k 4 -dims 3 -flows 2000    # reduced sweep
//	r2c2-sim -fig17
//	r2c2-sim -faults gen:7                      # seeded fault schedule
//	r2c2-sim -faults 'down@10ms:0-1/2ms;crash@40ms:5/2ms'
//
// The -interrack mode runs the DESIGN.md §14 intra- vs inter-rack traffic
// sweep on the sharded engine instead of the figures:
//
//	r2c2-sim -interrack -racks 4 -k 3 -shards 4
//	r2c2-sim -interrack -racks 40 -k 16 -shards 0 -flows 4000 -horizon 5ms -csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"r2c2/internal/experiments"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "r2c2-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("r2c2-sim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		fig10    = fs.Bool("fig10", false, "Figures 10 & 11: FCT / throughput CDFs at fixed tau")
		fig12    = fs.Bool("fig12", false, "Figures 12-14: sweep over flow inter-arrival times")
		fig17    = fs.Bool("fig17", false, "Figure 17: headroom sensitivity")
		k        = fs.Int("k", 4, "torus radix (paper: 8)")
		dims     = fs.Int("dims", 3, "torus dimensions")
		flows    = fs.Int("flows", 2000, "flows per run (paper: ~20k)")
		tauUs    = fs.Float64("tau", 4, "mean flow inter-arrival time in microseconds (paper: 1 at 512 nodes)")
		seed     = fs.Int64("seed", 1, "random seed")
		reliable = fs.Bool("reliable", false, "enable the §6 reliability extension for the R2C2 runs")
		parallel = fs.Int("parallel", 0, "worker count for independent sweep runs (0 = GOMAXPROCS, 1 = sequential; results are identical at any setting)")
		csv      = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		faultArg = fs.String("faults", "", "fault schedule: gen:<seed>, DSL (down@10ms:0-1/2ms;...) or JSON; runs the fault sweep on a 2D torus instead of the figures")

		interrack = fs.Bool("interrack", false, "run the intra- vs inter-rack traffic sweep on the sharded engine instead of the figures (uses -k as the per-rack torus radix)")
		racks     = fs.Int("racks", 4, "interrack: racks in the ring")
		bridges   = fs.Int("bridges", 2, "interrack: boundary cables between adjacent racks")
		shards    = fs.Int("shards", 0, "interrack: worker cap over the rack shards (0 = NumCPU, 1 = one shard owning the whole fabric, the oracle; the mix results are identical at any setting)")
		mixes     = fs.String("mixes", "0,0.25,0.5,1", "interrack: comma-separated inter-rack flow fractions")
		horizon   = fs.Duration("horizon", 50*time.Millisecond, "interrack: simulated-time horizon per run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *faultArg != "" {
		return runFaults(stdout, *faultArg, *k, *seed, *csv)
	}
	if *interrack {
		return runInterRack(stdout, interRackArgs{
			racks: *racks, k: *k, bridges: *bridges, shards: *shards,
			flows: *flows, tauUs: *tauUs, seed: *seed, reliable: *reliable,
			mixes: *mixes, horizon: *horizon, csv: *csv,
		})
	}
	if !*fig10 && !*fig12 && !*fig17 {
		*fig10, *fig12, *fig17 = true, true, true
	}

	s := experiments.TestScale()
	s.K, s.Dims, s.Flows, s.Seed = *k, *dims, *flows, *seed
	s.Reliable = *reliable
	s.Parallel = *parallel
	tau := simtime.FromSeconds(*tauUs * 1e-6)
	s.Tau = tau
	if err := s.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "topology: %d-ary %d-cube (%d nodes), %d flows, tau=%v\n\n",
		s.K, s.Dims, s.Torus().Nodes(), s.Flows, tau)

	if *fig10 {
		res := experiments.Fig10and11(s, tau)
		render(stdout, res.ShortFCTTable(), *csv)
		render(stdout, res.LongThroughputTable(), *csv)
		for _, run := range res.Runs {
			fmt.Fprintf(stdout, "%-5s completed %d/%d flows, drops=%d, events=%d, simulated %v\n",
				run.Transport, run.Results.Completed,
				run.Results.Completed+run.Results.Incomplete,
				run.Results.Drops, run.Results.Events, run.Results.EndTime)
		}
		fmt.Fprintln(stdout)
	}

	if *fig12 {
		taus := []simtime.Time{tau, 2 * tau, 10 * tau, 100 * tau}
		res := experiments.Fig12to14(s, taus)
		render(stdout, res.Fig12Table(), *csv)
		render(stdout, res.Fig13Table(), *csv)
		render(stdout, res.Fig14Table(), *csv)
	}

	if *fig17 {
		res := experiments.Fig17(s, tau, []float64{0, 0.01, 0.05, 0.10, 0.20})
		render(stdout, res.Table(), *csv)
	}
	return nil
}

// runFaults replays a fault schedule on the packet-level simulator (the
// deterministic half of the sim/emu fault cross-validation; r2c2-emu
// -faults runs both sides).
func runFaults(stdout io.Writer, arg string, k int, seed int64, csv bool) error {
	cfg := experiments.DefaultFaultSweep()
	cfg.K, cfg.Seed = k, seed
	g, err := topology.NewTorus(cfg.K, 2)
	if err != nil {
		return err
	}
	horizon := cfg.MeanInterval * time.Duration(cfg.Flows)
	sched, err := experiments.ScheduleArg(g, arg, horizon)
	if err != nil {
		return err
	}
	cfg.Schedule = sched
	fmt.Fprintf(stdout, "fault sweep: %dx%d 2D torus, %d x %d-byte flows, schedule %s\n\n",
		cfg.K, cfg.K, cfg.Flows, cfg.FlowBytes, sched)
	st, err := experiments.FaultSweepSim(cfg)
	if err != nil {
		return err
	}
	render(stdout, st.SimTable(sched), csv)
	return nil
}

type interRackArgs struct {
	racks, k, bridges, shards, flows int
	tauUs                            float64
	seed                             int64
	reliable                         bool
	mixes                            string
	horizon                          time.Duration
	csv                              bool
}

// runInterRack drives the intra- vs inter-rack traffic-mix sweep on the
// sharded engine (DESIGN.md §14) and prints the mix table plus the
// per-shard utilisation table — the CI shards-smoke artifact.
func runInterRack(stdout io.Writer, a interRackArgs) error {
	cfg := experiments.DefaultInterRack()
	cfg.Racks, cfg.K, cfg.Bridges = a.racks, a.k, a.bridges
	cfg.Flows, cfg.Seed, cfg.Reliable = a.flows, a.seed, a.reliable
	cfg.Tau = simtime.FromSeconds(a.tauUs * 1e-6)
	cfg.Horizon = simtime.FromSeconds(a.horizon.Seconds())
	cfg.Shards = a.shards
	if cfg.Shards == 0 {
		cfg.Shards = runtime.NumCPU()
		if cfg.Shards < 2 {
			cfg.Shards = 2 // stay on the sharded engine even on one CPU
		}
	}
	cfg.Mixes = cfg.Mixes[:0]
	for _, f := range strings.Split(a.mixes, ",") {
		mix, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || mix < 0 || mix > 1 {
			return fmt.Errorf("-mixes: bad fraction %q", f)
		}
		cfg.Mixes = append(cfg.Mixes, mix)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "interrack sweep: %v, horizon=%v\n\n", cfg, a.horizon)
	res := experiments.InterRack(cfg)
	render(stdout, res.MixTable(), a.csv)
	render(stdout, res.ShardUtilTable(), a.csv)
	return nil
}

// render prints a result table as aligned text or CSV.
func render(w io.Writer, t *experiments.Table, csv bool) {
	if csv {
		fmt.Fprint(w, "# ", t.Title, "\n", t.CSV())
		return
	}
	fmt.Fprintln(w, t)
}
