package experiments

import (
	"fmt"
	"io"
	"time"

	"r2c2/internal/broadcastmodel"
	"r2c2/internal/genetic"
	"r2c2/internal/simtime"
)

// Figure is one registry entry: a figure of the paper's evaluation (or a
// group of figures one run produces), the claim it checks, and the two
// configurations it runs at.
type Figure struct {
	Name    string // what `r2c2 fig` takes
	Section string // where the paper reports it
	Claim   string // what the paper says it shows
	// Small runs in seconds (`go test`, the default); Paper is the run that
	// results/ records.
	Small, Paper Config
	// Check rejects a configuration Run cannot run; nil means
	// Config.Validate.
	Check func(Config) error
	// Run writes the figure's tables for a Validate-clean configuration.
	Run func(Config, *Writer) error
}

// Validate runs the entry's Check on c.
func (f Figure) Validate(c Config) error {
	if f.Check == nil {
		return c.Validate()
	}
	return f.Check(c)
}

// Writer renders registry output as aligned text or, with CSV, one
// "# title" line and comma-separated rows per table.
type Writer struct {
	W      io.Writer
	CSV    bool
	header string
}

// Header writes a configuration line unless it repeats the last one, so
// entries that share a configuration (fig10, fig12 and fig17 at paper
// scale) print it once.
func (w *Writer) Header(format string, args ...any) {
	if h := fmt.Sprintf(format, args...); h != w.header {
		w.header = h
		io.WriteString(w.W, h)
	}
}

// Table writes each table in turn.
func (w *Writer) Table(ts ...*Table) {
	for _, t := range ts {
		if w.CSV {
			fmt.Fprint(w.W, "# ", t.Title, "\n", t.CSV())
		} else {
			fmt.Fprintln(w.W, t)
		}
	}
}

// Printf writes a line of text in either format.
func (w *Writer) Printf(format string, args ...any) { fmt.Fprintf(w.W, format, args...) }

// Lookup returns the registry entry called name.
func Lookup(name string) (Figure, error) {
	for _, f := range Figures {
		if f.Name == name {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("no figure %q (r2c2 fig lists them)", name)
}

// small and paper are the torus figures' two configurations: TestScale's
// 64-node 4-ary 3-cube and PaperScale's 512-node 8-ary 3-cube.
var small, paper = TestScale(), PaperScale()

// with returns c changed by set.
func with(c Config, set func(*Config)) Config { set(&c); return c }

// ring is an inter-rack sweep over racks K×K tori.
func ring(k, racks, flows int, tau, horizon simtime.Time, mixes ...float64) Config {
	return Config{K: k, Dims: 2, LinkGbps: 10, PropLat: 100 * simtime.Nanosecond, Flows: flows, Tau: tau,
		FlowBytes: 128 << 10, Seed: 1, Racks: racks, Bridges: 2, Horizon: horizon, Mixes: mixes}
}

// rhoSweep is the recomputation-interval sweep of Figs. 8 and 15.
var rhoSweep = []simtime.Time{
	100 * simtime.Microsecond, 250 * simtime.Microsecond, 500 * simtime.Microsecond,
	simtime.Millisecond, 2 * simtime.Millisecond, 5 * simtime.Millisecond, 10 * simtime.Millisecond,
}

// Figures is the registry, in paper order.
var Figures = []Figure{{
	Name: "fig2", Section: "§2.2",
	Claim: "no routing protocol wins on every traffic pattern; VLB has the best worst case (0.5)",
	Small: with(small, func(c *Config) { c.K, c.Dims, c.Trials = 4, 2, 10 }),
	Paper: with(paper, func(c *Config) { c.K, c.Dims, c.Trials = 8, 2, 50 }),
	Run: func(c Config, w *Writer) error {
		g := c.Torus()
		w.Header("Figure 2 topology: %d-ary %d-cube (%d nodes)\n", c.K, c.Dims, g.Nodes())
		w.Table(Fig2(g, c.Trials, c.Seed).Table())
		return nil
	},
}, {
	Name: "fig7", Section: "§5.1",
	Claim: "the emulator and the packet-level simulator agree on flow throughput",
	Small: Config{K: 4, Dims: 2, LinkGbps: 0.2, Flows: 12, Tau: 5 * simtime.Millisecond, FlowBytes: 256 << 10, Seed: 1},
	Paper: Config{K: 4, Dims: 2, LinkGbps: 0.2, Flows: 100, Tau: 5 * simtime.Millisecond, FlowBytes: 1 << 20, Seed: 1},
	Check: Config.CheckEmu,
	Run: func(c Config, w *Writer) error {
		w.Header("cross-validating %dx%d 2D torus, %d x %d-byte flows at %v mean arrival, %.0f Mbps links\n\n",
			c.K, c.K, c.Flows, c.FlowBytes, wallClock(c.Tau), c.LinkGbps*1000)
		res, err := Fig7(c)
		if err != nil {
			return err
		}
		w.Table(res.Table())
		w.Printf("median throughput gap: %.1f%%\n", 100*res.MedianThroughputGap())
		return nil
	},
}, {
	Name: "fig8", Section: "§5.1",
	Claim: "recomputing rates every 500 µs–1 ms costs a server core single-digit percent; 100 µs is infeasible on a wimpy core",
	Small: small, Paper: paper,
	Run: func(c Config, w *Writer) error {
		torusHeader(w, c)
		w.Table(Fig8(c, c.Tau, rhoSweep, 200).Table()) // 200 recomputations timed per ρ
		w.Printf("(atom columns scale host times by the documented slowdown factor; see DESIGN.md)\n\n")
		return nil
	},
}, {
	// Fig. 9 evaluates the §3.2 model on its fixed topologies; it reads no
	// configuration.
	Name: "fig9", Section: "§3.2",
	Claim: "broadcasts use a small share of capacity unless most bytes are in small flows; one broadcast is ~8 KB",
	Small: small, Paper: paper,
	Run: func(_ Config, w *Writer) error {
		w.Table(Fig9([]float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}).Table())
		g := paper.Torus()
		w.Printf("spot checks on the 512-node 3D torus (§3.2):\n")
		w.Printf("  one broadcast        = %.0f bytes on the wire (paper: ~8 KB)\n", broadcastmodel.EventBytes(g.Nodes()))
		w.Printf("  10 KB flow overhead  = %.2f%% (paper: 26.66%%)\n", 100*broadcastmodel.FlowOverhead(g, 10e3))
		w.Printf("  10 MB flow overhead  = %.4f%% (paper: 0.026%%)\n\n", 100*broadcastmodel.FlowOverhead(g, 10e6))
		return nil
	},
}, {
	Name: "fig10", Section: "§5.2",
	Claim: "Figs. 10 and 11: R2C2 beats TCP on short-flow FCT and long-flow throughput and tracks PFQ",
	Small: small, Paper: paper,
	Run: func(c Config, w *Writer) error {
		torusHeader(w, c)
		res := Fig10and11(c, c.Tau)
		w.Table(res.ShortFCTTable(), res.LongThroughputTable())
		for _, run := range res.Runs {
			w.Printf("%-5s completed %d/%d flows, drops=%d, events=%d, simulated %v\n",
				run.Transport, run.Results.Completed,
				run.Results.Completed+run.Results.Incomplete,
				run.Results.Drops, run.Results.Events, run.Results.EndTime)
		}
		w.Printf("\n")
		return nil
	},
}, {
	Name: "fig12", Section: "§5.2",
	Claim: "Figs. 12–14: R2C2's edge over TCP holds across load, and its queues stay near one packet",
	Small: small, Paper: paper,
	Run: runFig12,
}, {
	Name: "fig12-100ns", Section: "§5.2",
	Claim: "Figs. 12–14 from τ = 100 ns: under the heaviest churn R2C2 falls further behind PFQ and queues grow",
	Small: with(small, func(c *Config) { c.Flows, c.Tau = 400, 100*simtime.Nanosecond }),
	Paper: with(paper, func(c *Config) { c.Flows, c.Tau = 4000, 100*simtime.Nanosecond }),
	Run:   runFig12,
}, {
	Name: "fig15", Section: "§5.2",
	Claim: "rate error grows with the recomputation interval ρ; 500 µs–1 ms is a good compromise",
	Small: small, Paper: paper,
	Run: func(c Config, w *Writer) error {
		torusHeader(w, c)
		w.Table(Fig15(c, c.Tau, rhoSweep).Table())
		return nil
	},
}, {
	Name: "fig16", Section: "§5.2",
	Claim: "rate error grows with load and is negligible at τ = 100 µs",
	Small: small, Paper: paper,
	Run: func(c Config, w *Writer) error {
		torusHeader(w, c)
		taus := []simtime.Time{c.Tau, 2 * c.Tau, 5 * c.Tau, 25 * c.Tau, 100 * c.Tau}
		w.Table(Fig16(c, 500*simtime.Microsecond, taus).Table())
		return nil
	},
}, {
	Name: "fig17", Section: "§5.2",
	Claim: "performance is not very sensitive to headroom; 5 % buys tail FCT for a small throughput cost",
	Small: small, Paper: paper,
	Run: func(c Config, w *Writer) error {
		torusHeader(w, c)
		w.Table(Fig17(c, c.Tau, []float64{0, 0.01, 0.05, 0.10, 0.20}).Table())
		return nil
	},
}, {
	Name: "fig18", Section: "§5.2",
	Claim: "adaptive per-flow protocol selection matches or beats RPS, VLB and random at every load",
	Small: with(small, func(c *Config) { c.GA = genetic.Config{Population: 20, MaxGens: 10} }),
	Paper: with(paper, func(c *Config) { c.GA = genetic.Config{Population: 30, MaxGens: 15} }),
	Run: func(c Config, w *Writer) error {
		w.Header("Figure 18 topology: %d-ary %d-cube (%d nodes)\n", c.K, c.Dims, c.Torus().Nodes())
		w.Table(Fig18(c, []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0}, c.GA).Table())
		return nil
	},
}, {
	Name: "fig19", Section: "§5.2",
	Claim: "decentralised control traffic is constant per flow event; a centralised controller's grows with flows per server",
	Small: small, Paper: paper,
	Run: func(c Config, w *Writer) error {
		w.Table(Fig19(c.Torus(), []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).Table())
		return nil
	},
}, {
	Name: "interrack", Section: "§6",
	Claim: "one R2C2 stack spans racks joined by direct cables; the mix table is identical at every shard count",
	Small: ring(3, 4, 120, 100*simtime.Microsecond, 50*simtime.Millisecond, 0, 0.25, 0.5, 1),
	Paper: ring(16, 40, 150, simtime.Microsecond, 1500*simtime.Microsecond, 0, 0.5),
	Check: Config.CheckRing,
	Run: func(c Config, w *Writer) error {
		w.Header("interrack sweep: %d racks x %dx%d torus (%d nodes), %d bridges/pair, %d flows, tau=%v, shards=%d, horizon=%v\n\n",
			c.Racks, c.K, c.K, c.Racks*c.K*c.K, c.Bridges, c.Flows, c.Tau, c.Shards, c.Horizon)
		res := InterRack(c)
		w.Table(res.MixTable(), res.ShardUtilTable())
		return nil
	},
}}

// torusHeader is the configuration line of the simulated torus figures.
func torusHeader(w *Writer, c Config) {
	w.Header("topology: %d-ary %d-cube (%d nodes), %d flows, tau=%v\n\n", c.K, c.Dims, c.Torus().Nodes(), c.Flows, c.Tau)
}

// runFig12 runs Figs. 12–14 from c.Tau up to 100 c.Tau.
func runFig12(c Config, w *Writer) error {
	torusHeader(w, c)
	res := Fig12to14(c, []simtime.Time{c.Tau, 2 * c.Tau, 10 * c.Tau, 100 * c.Tau})
	w.Table(res.Fig12Table(), res.Fig13Table(), res.Fig14Table())
	return nil
}

// wallClock converts a simulated span to the emulator's wall-clock one.
func wallClock(t simtime.Time) time.Duration { return time.Duration(t / simtime.Nanosecond) }
