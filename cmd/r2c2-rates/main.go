// Command r2c2-rates runs the rate-computation studies: the accuracy of
// periodic batch recomputation against the ideal of recomputing at every
// flow event (Figures 15 and 16, fluid model), and the CPU cost of the
// recomputation itself (Figure 8).
//
// Usage:
//
//	r2c2-rates -fig15 -k 8 -dims 3 -flows 20000   # paper scale
//	r2c2-rates -fig8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"r2c2/internal/experiments"
	"r2c2/internal/simtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "r2c2-rates:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("r2c2-rates", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		fig8  = fs.Bool("fig8", false, "Figure 8: CPU overhead of rate recomputation")
		fig15 = fs.Bool("fig15", false, "Figure 15: rate error vs recomputation interval")
		fig16 = fs.Bool("fig16", false, "Figure 16: rate error vs flow inter-arrival time")
		k     = fs.Int("k", 4, "torus radix (paper: 8)")
		dims  = fs.Int("dims", 3, "torus dimensions")
		flows = fs.Int("flows", 3000, "flows per run")
		tauUs = fs.Float64("tau", 4, "mean inter-arrival time in microseconds (paper: 1)")
		ticks = fs.Int("max-ticks", 200, "recomputations timed per interval (fig8)")
		seed  = fs.Int64("seed", 1, "random seed")
		csv   = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*fig8 && !*fig15 && !*fig16 {
		*fig8, *fig15, *fig16 = true, true, true
	}

	s := experiments.TestScale()
	s.K, s.Dims, s.Flows, s.Seed = *k, *dims, *flows, *seed
	tau := simtime.FromSeconds(*tauUs * 1e-6)
	s.Tau = tau
	if err := s.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "topology: %d-ary %d-cube (%d nodes), %d flows, tau=%v\n\n",
		s.K, s.Dims, s.Torus().Nodes(), s.Flows, tau)

	rhos := []simtime.Time{
		100 * simtime.Microsecond,
		250 * simtime.Microsecond,
		500 * simtime.Microsecond,
		simtime.Millisecond,
		2 * simtime.Millisecond,
		5 * simtime.Millisecond,
		10 * simtime.Millisecond,
	}

	if *fig8 {
		res := experiments.Fig8(s, tau, rhos, *ticks)
		render(stdout, res.Table(), *csv)
		fmt.Fprintln(stdout, "(atom columns scale host times by the documented slowdown factor; see DESIGN.md)")
		fmt.Fprintln(stdout)
	}

	if *fig15 {
		res := experiments.Fig15(s, tau, rhos)
		render(stdout, res.Table(), *csv)
	}

	if *fig16 {
		taus := []simtime.Time{tau, 2 * tau, 5 * tau, 25 * tau, 100 * tau}
		res := experiments.Fig16(s, 500*simtime.Microsecond, taus)
		render(stdout, res.Table(), *csv)
	}
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
