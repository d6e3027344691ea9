// Package experiments contains one harness per table/figure of the paper's
// evaluation (§5). Each harness builds the workload, runs the relevant
// engine (routing analysis, packet simulator, fluid simulator, emulator or
// analytic model) and returns the same rows/series the paper reports.
//
// Every harness takes a Config so the identical experiment runs both at
// paper scale (512-node 3D torus) and at a reduced test scale (64-node
// torus, via `go test` and the benchmarks). The registry (Figures) holds
// each figure's two configurations; `r2c2 fig` runs them, and the
// EXPERIMENTS.md log records which scale produced which numbers.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"r2c2/internal/genetic"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// Config fixes one experiment run: the torus and the workload every
// harness reads, then fields that only the figures naming them read.
type Config struct {
	K, Dims  int          // torus geometry (paper: 8,3 = 512 nodes)
	LinkGbps float64      // link bandwidth (paper: 10)
	PropLat  simtime.Time // per-hop latency (paper: 100 ns)
	Flows    int          // flows per simulated run
	Tau      simtime.Time // default mean flow inter-arrival time
	Seed     int64
	// Reliable turns on the §6 reliability extension for R2C2 runs.
	Reliable bool
	// Parallel is the worker count for sweeps of independent simulated
	// runs (<= 0 means GOMAXPROCS; 1 forces sequential execution).
	// Results are byte-identical at any worker count.
	Parallel int

	// FlowBytes fixes every flow's size (fig7, the fault sweep, interrack);
	// 0 draws the §5.2 heavy-tailed mix.
	FlowBytes int64
	Trials    int            // fig2: random permutations searched for the worst case
	GA        genetic.Config // fig18: the genetic search's budget
	// interrack: a ring of Racks K×K tori with Bridges cables between
	// neighbours, run on Shards workers (sim.RunConfig.Shards) to Horizon,
	// once per inter-rack flow fraction in Mixes.
	Racks, Bridges, Shards int
	Horizon                simtime.Time
	Mixes                  []float64
}

// PaperScale is the configuration of §5.2: the AMD SeaMicro-sized 512-node
// 3D torus at τ = 1 µs, with the 8,000 flows results/ records.
func PaperScale() Config {
	return Config{K: 8, Dims: 3, LinkGbps: 10, PropLat: 100 * simtime.Nanosecond,
		Flows: 8000, Tau: simtime.Microsecond, Seed: 1}
}

// TestScale is a 64-node 3D torus that keeps `go test` and benchmarks
// fast while preserving every qualitative trend.
func TestScale() Config {
	return Config{K: 4, Dims: 3, LinkGbps: 10, PropLat: 100 * simtime.Nanosecond,
		Flows: 1200, Tau: 4 * simtime.Microsecond, Seed: 1}
}

// Validate rejects a torus or workload no harness can run, so that `r2c2`
// reports a bad flag as an error where the topology and traffic generators
// (whose callers inside the module pass known-good sizes) would panic on it.
func (c Config) Validate() error {
	switch {
	case c.K < 2 || c.Dims < 1:
		return fmt.Errorf("torus needs k >= 2 and dims >= 1 (got k=%d dims=%d)", c.K, c.Dims)
	case c.Flows < 1:
		return fmt.Errorf("need at least one flow (got %d)", c.Flows)
	case c.Tau <= 0:
		return fmt.Errorf("mean flow inter-arrival time must be positive (got %v)", c.Tau)
	case !(c.LinkGbps > 0) || math.IsInf(c.LinkGbps, 1):
		return fmt.Errorf("link rate must be positive and finite (got %v Gbps)", c.LinkGbps)
	}
	return nil
}

// CheckEmu validates a sim-vs-emu workload (fig7, the fault sweep, the live
// demo): Flows fixed-size flows over a K×K 2D torus.
func (c Config) CheckEmu() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.FlowBytes <= 0 {
		return fmt.Errorf("flow size must be positive (got %d bytes)", c.FlowBytes)
	}
	return nil
}

// CheckRing validates the inter-rack sweep: the per-rack torus and the
// workload, a ring of at least two racks, between one bridge and one per
// rack node (Fabric spreads them over distinct nodes), a positive horizon
// and inter-rack fractions in [0, 1].
func (c Config) CheckRing() error {
	if err := c.Validate(); err != nil {
		return err
	}
	switch {
	case c.Racks < 2:
		return fmt.Errorf("interrack sweep needs at least two racks (got %d)", c.Racks)
	case c.Bridges < 1 || c.Bridges > c.K*c.K:
		return fmt.Errorf("bridges per rack pair must be between 1 and k*k = %d (got %d)", c.K*c.K, c.Bridges)
	case c.Horizon <= 0:
		return fmt.Errorf("horizon must be positive (got %v)", c.Horizon)
	}
	for _, m := range c.Mixes {
		if !(m >= 0 && m <= 1) {
			return fmt.Errorf("inter-rack fraction %v is outside [0, 1]", m)
		}
	}
	return nil
}

// workload is the seeded Poisson arrival process over g at mean
// inter-arrival tau: Flows flows of FlowBytes each, or of the §5.2
// heavy-tailed sizes when FlowBytes is 0.
func (c Config) workload(g *topology.Graph, tau simtime.Time) []trafficgen.Arrival {
	cfg := trafficgen.PoissonConfig{Nodes: g.Nodes(), MeanInterval: tau, Count: c.Flows, Seed: c.Seed}
	if c.FlowBytes > 0 {
		return trafficgen.FixedSize(cfg, c.FlowBytes)
	}
	return trafficgen.Poisson(cfg)
}

// Torus builds the configuration's topology; it must be Validate-clean.
func (c Config) Torus() *topology.Graph {
	g, err := topology.NewTorus(c.K, c.Dims)
	if err != nil {
		panic(err)
	}
	return g
}

// Table is a printable result table: one header plus rows, all stringly so
// the cmd tools and EXPERIMENTS.md render identically.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish comma-separated values (cells are
// plain numbers and identifiers; no quoting needed), for piping into
// plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func g3(v float64) string { return fmt.Sprintf("%.3g", v) }
