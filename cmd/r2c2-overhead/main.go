// Command r2c2-overhead evaluates R2C2's control-plane cost: the CPU cost
// of rate recomputation across batching intervals ρ (Figure 8), the
// broadcast overhead model of §3.2 (Figure 9) and the decentralized-
// versus-centralized control traffic comparison (Figure 19).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"r2c2/internal/broadcastmodel"
	"r2c2/internal/core"
	"r2c2/internal/experiments"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "r2c2-overhead:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("r2c2-overhead", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		fig8     = fs.Bool("fig8", false, "Figure 8: CPU cost of rate recomputation")
		fig9     = fs.Bool("fig9", false, "Figure 9: broadcast overhead vs small-flow byte fraction")
		fig19    = fs.Bool("fig19", false, "Figure 19: decentralized vs centralized control traffic")
		k        = fs.Int("k", 8, "torus radix for fig19")
		dims     = fs.Int("dims", 3, "torus dimensions for fig19")
		rhos     = fs.String("rhos", "", "comma-separated recomputation intervals in µs for fig8 (default: the built-in sweep around core.DefaultRho)")
		flows    = fs.Int("flows", 1200, "flows in the fig8 replayed trace")
		ticks    = fs.Int("max-ticks", 200, "recomputations timed per interval for fig8")
		parallel = fs.Int("parallel", 0, "worker count for the fig8 per-interval replays (0 = GOMAXPROCS, 1 = sequential; note fig8 times wall clocks, so contention can inflate measured cost)")
		csv      = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*fig8 && !*fig9 && !*fig19 {
		*fig8, *fig9, *fig19 = true, true, true
	}

	if *fig8 {
		sweep, err := parseRhos(*rhos)
		if err != nil {
			return err
		}
		s := experiments.TestScale()
		s.Flows = *flows
		s.Parallel = *parallel
		if err := s.Validate(); err != nil {
			return err
		}
		res := experiments.Fig8(s, s.Tau, sweep, *ticks)
		render(stdout, res.Table(), *csv)
		fmt.Fprintln(stdout, "(full-* columns rebuild the allocation from scratch each tick; atom-* scale the full cost")
		fmt.Fprintln(stdout, " by the documented slowdown factor, see DESIGN.md)")
		fmt.Fprintln(stdout)
	}

	if *fig9 {
		res := experiments.Fig9([]float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1})
		render(stdout, res.Table(), *csv)

		// The §3.2 spot checks.
		g, err := topology.NewTorus(8, 3)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spot checks on the 512-node 3D torus (§3.2):\n")
		fmt.Fprintf(stdout, "  one broadcast        = %.0f bytes on the wire (paper: ~8 KB)\n",
			broadcastmodel.EventBytes(g.Nodes()))
		fmt.Fprintf(stdout, "  10 KB flow overhead  = %.2f%% (paper: 26.66%%)\n",
			100*broadcastmodel.FlowOverhead(g, 10e3))
		fmt.Fprintf(stdout, "  10 MB flow overhead  = %.4f%% (paper: 0.026%%)\n\n",
			100*broadcastmodel.FlowOverhead(g, 10e6))
	}

	if *fig19 {
		g, err := topology.NewTorus(*k, *dims)
		if err != nil {
			return err
		}
		res := experiments.Fig19(g, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
		render(stdout, res.Table(), *csv)
	}
	return nil
}

// parseRhos turns a comma-separated list of microsecond values into the
// fig8 ρ sweep, defaulting to a spread around the paper's ρ = 500 µs
// (core.DefaultRho).
func parseRhos(spec string) ([]simtime.Time, error) {
	if spec == "" {
		base := simtime.FromSeconds(core.DefaultRho.Seconds())
		return []simtime.Time{base / 5, base / 2, base, 2 * base, 10 * base}, nil
	}
	var out []simtime.Time
	for _, field := range strings.Split(spec, ",") {
		us, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil || us <= 0 {
			return nil, fmt.Errorf("bad -rhos entry %q (want positive µs values)", field)
		}
		out = append(out, simtime.FromSeconds(us*1e-6))
	}
	return out, nil
}

// render prints a result table as aligned text or CSV.
func render(w io.Writer, t *experiments.Table, csv bool) {
	if csv {
		fmt.Fprint(w, "# ", t.Title, "\n", t.CSV())
		return
	}
	fmt.Fprintln(w, t)
}
