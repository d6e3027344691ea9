// Package experiments contains one harness per table/figure of the paper's
// evaluation (§5). Each harness builds the workload, runs the relevant
// engine (routing analysis, packet simulator, fluid simulator, emulator or
// analytic model) and returns the same rows/series the paper reports.
//
// Every harness takes a Scale so the identical experiment runs both at
// paper scale (512-node 3D torus, via the cmd/ tools) and at a reduced
// test scale (64-node torus, via `go test` and the benchmarks). The
// EXPERIMENTS.md log records which scale produced which numbers.
package experiments

import (
	"fmt"
	"strings"

	"r2c2/internal/simtime"
	"r2c2/internal/topology"
)

// Scale fixes the experiment size.
type Scale struct {
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
}

// PaperScale is the configuration of §5.2: the AMD SeaMicro-sized 512-node
// 3D torus.
func PaperScale() Scale {
	return Scale{K: 8, Dims: 3, LinkGbps: 10, PropLat: 100 * simtime.Nanosecond,
		Flows: 20000, Tau: simtime.Microsecond, Seed: 1}
}

// TestScale is a 64-node 3D torus that keeps `go test` and benchmarks
// fast while preserving every qualitative trend.
func TestScale() Scale {
	return Scale{K: 4, Dims: 3, LinkGbps: 10, PropLat: 100 * simtime.Nanosecond,
		Flows: 1200, Tau: 4 * simtime.Microsecond, Seed: 1}
}

// Validate rejects a scale no harness can run, so that the cmd tools report
// a bad flag as an error where the topology and traffic generators (whose
// callers inside the module pass known-good sizes) would panic on it.
func (s Scale) Validate() error {
	switch {
	case s.K < 2 || s.Dims < 1:
		return fmt.Errorf("torus needs k >= 2 and dims >= 1 (got k=%d dims=%d)", s.K, s.Dims)
	case s.Flows < 1:
		return fmt.Errorf("need at least one flow (got %d)", s.Flows)
	case s.Tau <= 0:
		return fmt.Errorf("mean flow inter-arrival time must be positive (got %v)", s.Tau)
	case !(s.LinkGbps > 0):
		return fmt.Errorf("link rate must be positive (got %v Gbps)", s.LinkGbps)
	}
	return nil
}

// Torus builds the scale's topology; the scale must be Validate-clean.
func (s Scale) Torus() *topology.Graph {
	g, err := topology.NewTorus(s.K, s.Dims)
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
