// Command r2c2 reproduces the paper's evaluation (§5) from the figure
// registry in internal/experiments, and drives the simulator, the emulator
// and the inter-rack sweep by hand:
//
//	r2c2 fig [<name>...] [-scale small|paper] [flags]  # registry entries; none lists them
//	r2c2 fig fig10 fig12 fig17 -scale paper            # results/fig10-14-17.txt
//	r2c2 sim -faults 'down@10ms:0-1/2ms;crash@40ms:5/2ms'  # a fault schedule on the simulator
//	r2c2 emu [-crossvalidate] [-demo] [-faults <schedule>] [flags]  # Figure 7, a live rack, or both backends
//	r2c2 interrack [-scale small|paper] [flags]        # the intra- vs inter-rack sweep
//
// A mode starts from a registry configuration (each named entry's at
// -scale, the interrack entry's, or fig7's small one for sim and emu); each
// flag given overrides one of its fields, and the result is validated
// before anything runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
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
		fmt.Fprintln(os.Stderr, "r2c2:", err)
		os.Exit(1)
	}
}

// run parses and validates args, then runs them.
func run(args []string, stdout io.Writer) error {
	inv, err := parse(args, stdout)
	if err != nil {
		return err
	}
	return inv.run(stdout)
}

// modeFlags lists the flags each mode takes.
var modeFlags = map[string][]string{
	"fig":       {"scale", "seed", "csv", "k", "dims", "flows", "tau", "parallel", "reliable"},
	"sim":       {"faults", "seed", "csv", "k", "flows", "tau", "mbps", "bytes"},
	"emu":       {"crossvalidate", "demo", "faults", "seed", "csv", "k", "flows", "tau", "mbps", "bytes"},
	"interrack": {"scale", "seed", "csv", "k", "flows", "tau", "reliable", "racks", "bridges", "shards", "mixes", "horizon"},
}

// options are the flags that pick what runs rather than configure it.
type options struct {
	scale, faults    string
	csv, cross, demo bool
}

// flagSet defines every flag once, on o or on the field of c it sets with
// c's value as its default, and returns mode's share of them.
func flagSet(mode string, o *options, c *experiments.Config, out io.Writer) *flag.FlagSet {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.StringVar(&o.scale, "scale", "small", "registry configuration: small (seconds) or paper (what results/ records)")
	all.BoolVar(&o.csv, "csv", false, "emit tables as CSV instead of aligned text")
	all.StringVar(&o.faults, "faults", "", "fault schedule: gen:<seed>, DSL (down@10ms:0-1/2ms;...) or JSON")
	all.BoolVar(&o.cross, "crossvalidate", false, "run the Figure 7 cross-validation (the default)")
	all.BoolVar(&o.demo, "demo", false, "run a short live workload on the emulated rack")
	all.Int64Var(&c.Seed, "seed", c.Seed, "random seed")
	all.IntVar(&c.K, "k", c.K, "torus radix (of each rack for interrack; sim and emu use a k×k 2D torus)")
	all.IntVar(&c.Dims, "dims", c.Dims, "torus dimensions")
	all.IntVar(&c.Flows, "flows", c.Flows, "flows per run")
	all.Var((*span)(&c.Tau), "tau", "mean flow inter-arrival time: a duration (3ms) or microseconds (0.1)")
	all.IntVar(&c.Parallel, "parallel", c.Parallel, "workers for independent runs of a sweep (0 = GOMAXPROCS; output is identical at any setting, Figure 8's timings aside)")
	all.BoolVar(&c.Reliable, "reliable", c.Reliable, "enable the §6 reliability extension for the R2C2 runs")
	all.Func("mbps", "virtual link bandwidth, Mbit/s", func(v string) error {
		mbps, err := strconv.ParseFloat(v, 64)
		c.LinkGbps = mbps / 1000
		return err
	})
	all.Int64Var(&c.FlowBytes, "bytes", c.FlowBytes, "flow size in bytes")
	all.IntVar(&c.Racks, "racks", c.Racks, "racks in the ring")
	all.IntVar(&c.Bridges, "bridges", c.Bridges, "boundary cables between adjacent racks")
	all.IntVar(&c.Shards, "shards", c.Shards, "workers, each stepping one shard of contiguous racks (0 = NumCPU; the mix table is identical at any setting)")
	all.Func("mixes", "comma-separated inter-rack flow fractions", func(v string) error {
		c.Mixes = nil
		for _, field := range strings.Split(v, ",") {
			mix, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return fmt.Errorf("bad fraction %q", field)
			}
			c.Mixes = append(c.Mixes, mix)
		}
		return nil
	})
	all.Var((*span)(&c.Horizon), "horizon", "simulated-time horizon per run")
	fs := flag.NewFlagSet("r2c2 "+mode, flag.ContinueOnError)
	fs.SetOutput(out)
	for _, name := range modeFlags[mode] {
		fl := all.Lookup(name)
		fs.Var(fl.Value, name, fl.Usage)
	}
	return fs
}

// span is a simulated time span flag: a Go duration ("3ms", "1500us") or a
// bare number of microseconds ("0.1").
type span simtime.Time

func (s *span) String() string { return simtime.Time(*s).String() }

func (s *span) Set(v string) error {
	sec, err := strconv.ParseFloat(v, 64)
	if err == nil {
		sec *= 1e-6
	} else if d, derr := time.ParseDuration(v); derr == nil {
		sec = d.Seconds()
	} else {
		return errors.New("want a duration such as 3ms, or microseconds")
	}
	if !(math.Abs(sec) < 1e6) {
		return errors.New("out of range")
	}
	*s = span(simtime.FromSeconds(sec))
	return nil
}

// invocation is a parsed and validated command line: its steps have not run.
type invocation struct {
	csv   bool
	steps []func(*experiments.Writer) error
}

// parse reads and validates a command line. It builds no topology and
// starts nothing: every bad value but a fault schedule's out-of-range
// endpoint, which needs the torus, is an error here.
func parse(args []string, out io.Writer) (*invocation, error) {
	if len(args) == 0 || modeFlags[args[0]] == nil {
		return nil, errors.New("want a mode: r2c2 fig|sim|emu|interrack [flags] (see the command's doc)")
	}
	mode := args[0]
	// The first pass reads the options and splits figure names, which may
	// interleave with flags, from the flags.
	var o options
	fs := flagSet(mode, &o, &experiments.Config{}, out)
	var names, flagArgs []string
	for rest := args[1:]; ; rest = fs.Args()[1:] {
		if err := fs.Parse(rest); err != nil {
			return nil, err
		}
		flagArgs = append(flagArgs, rest[:len(rest)-fs.NArg()]...)
		if fs.NArg() == 0 {
			break
		}
		names = append(names, fs.Arg(0))
	}
	if mode != "fig" && len(names) > 0 {
		return nil, fmt.Errorf("%s takes no arguments (got %q)", mode, names[0])
	}
	if o.scale != "small" && o.scale != "paper" {
		return nil, fmt.Errorf("-scale must be small or paper (got %q)", o.scale)
	}
	// configure applies the flags to a configuration the mode starts from.
	configure := func(c experiments.Config) (experiments.Config, error) {
		err := flagSet(mode, &options{}, &c, io.Discard).Parse(flagArgs)
		if mode == "interrack" && c.Shards == 0 {
			c.Shards = max(runtime.NumCPU(), 2) // stay on the sharded engine even on one CPU
		}
		return c, err
	}
	inv := &invocation{csv: o.csv}
	// addFig queues a registry entry at -scale with the flags applied.
	addFig := func(name string) error {
		fig, err := experiments.Lookup(name)
		if err != nil {
			return err
		}
		c := fig.Small
		if o.scale == "paper" {
			c = fig.Paper
		}
		if c, err = configure(c); err != nil {
			return err
		}
		if err := fig.Validate(c); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		inv.steps = append(inv.steps, func(w *experiments.Writer) error { return fig.Run(c, w) })
		return nil
	}
	switch mode {
	case "fig":
		if len(names) == 0 {
			inv.steps = append(inv.steps, list)
		}
		for _, name := range names {
			if err := addFig(name); err != nil {
				return nil, err
			}
		}
		return inv, nil
	case "interrack":
		return inv, addFig("interrack")
	}
	// sim and emu replay fig7's workload, the fault sweep's included.
	fig7, err := experiments.Lookup("fig7")
	if err != nil {
		return nil, err
	}
	c, err := configure(fig7.Small)
	if err != nil {
		return nil, err
	}
	if err := c.CheckEmu(); err != nil {
		return nil, err
	}
	switch {
	case o.faults != "":
		if err := experiments.CheckScheduleArg(o.faults); err != nil {
			return nil, err
		}
		both := mode == "emu"
		inv.steps = append(inv.steps, func(w *experiments.Writer) error { return runFaults(w, c, o.faults, both) })
		return inv, nil
	case mode == "sim":
		return nil, errors.New("sim runs a fault schedule: give -faults")
	}
	if o.cross || !o.demo {
		if err := addFig("fig7"); err != nil {
			return nil, err
		}
	}
	if o.demo {
		inv.steps = append(inv.steps, func(w *experiments.Writer) error { return runDemo(w, c) })
	}
	return inv, nil
}

// run runs the invocation's steps in order.
func (inv *invocation) run(stdout io.Writer) error {
	w := &experiments.Writer{W: stdout, CSV: inv.csv}
	for _, step := range inv.steps {
		if err := step(w); err != nil {
			return err
		}
	}
	return nil
}

// list prints the registry.
func list(w *experiments.Writer) error {
	for _, f := range experiments.Figures {
		w.Printf("%-12s %-5s %s\n", f.Name, f.Section, f.Claim)
	}
	return nil
}

// runFaults replays one fault schedule on the simulator, and with both on
// the emulated rack too (the fault-injection analogue of Figure 7).
func runFaults(w *experiments.Writer, c experiments.Config, spec string, both bool) error {
	g, err := topology.NewTorus(c.K, 2)
	if err != nil {
		return err
	}
	mean := time.Duration(c.Tau / simtime.Nanosecond)
	sched, err := experiments.ScheduleArg(g, spec, mean*time.Duration(c.Flows))
	if err != nil {
		return err
	}
	w.Header("fault sweep: %dx%d 2D torus, %d x %d-byte flows at %v mean arrival, %.0f Mbps links\nschedule: %s\n\n",
		c.K, c.K, c.Flows, c.FlowBytes, mean, c.LinkGbps*1000, sched)
	if !both {
		st, err := experiments.FaultSweepSim(c, sched)
		if err != nil {
			return err
		}
		w.Table(st.SimTable(sched))
		return nil
	}
	res, err := experiments.FaultSweep(c, sched)
	if err != nil {
		return err
	}
	w.Table(res.Table())
	w.Printf("expected reroute waves: %d, agreement (20%% + 2 flows): %v\n", res.Waves, res.Agree(0.2, 2))
	return nil
}

// runDemo replays c's workload on a live emulated rack and reports each
// flow as it finishes.
func runDemo(w *experiments.Writer, c experiments.Config) error {
	rack, flows, err := experiments.Replay(c)
	if err != nil {
		return err
	}
	defer rack.Stop()
	w.Printf("live rack: %dx%d 2D torus, %.0f Mbps virtual links\n", c.K, c.K, c.LinkGbps*1000)
	for _, f := range flows {
		if err := f.Wait(5 * time.Minute); err != nil {
			return err
		}
		w.Printf("flow %v: %.1f Mbps, FCT %v\n", f.Info().ID, f.Throughput()/1e6, f.FCT().Round(time.Millisecond))
	}
	w.Printf("drops: %d\n", rack.Drops())
	return nil
}
