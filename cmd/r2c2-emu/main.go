// Command r2c2-emu runs the rack emulation platform (the in-process Maze
// substitute of §4.1) and the Figure 7 emulator/simulator cross-validation.
//
// Usage:
//
//	r2c2-emu -crossvalidate                     # Figure 7, default scale
//	r2c2-emu -crossvalidate -flows 200 -mbps 500
//	r2c2-emu -demo                              # run a live emulated rack
//	r2c2-emu -faults gen:7                      # sim vs emu under one fault schedule
//	r2c2-emu -faults 'down@10ms:0-1/2ms;crash@40ms:5/2ms' -csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"r2c2/internal/emu"
	"r2c2/internal/experiments"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "r2c2-emu:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("r2c2-emu", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		cross = fs.Bool("crossvalidate", false, "run the Figure 7 cross-validation")
		demo  = fs.Bool("demo", false, "run a short live workload on the emulated rack")
		k     = fs.Int("k", 4, "2D-torus radix (paper: 4x4)")
		mbps  = fs.Float64("mbps", 200, "virtual link bandwidth, Mbit/s (paper: 5000 on RDMA hardware)")
		flows = fs.Int("flows", 60, "number of flows (paper: 1000)")
		size  = fs.Int64("bytes", 1<<20, "flow size in bytes (paper: 10 MB)")
		mean  = fs.Duration("interval", 10*time.Millisecond, "mean flow inter-arrival (paper: 1ms)")
		seed  = fs.Int64("seed", 1, "random seed")
		csv   = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		fspec = fs.String("faults", "", "fault schedule: gen:<seed>, DSL (down@10ms:0-1/2ms;...) or JSON; cross-validates sim vs emu under it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fspec != "" {
		return runFaults(stdout, *fspec, experiments.FaultSweepConfig{
			K: *k, LinkMbps: *mbps, Flows: *flows, FlowBytes: *size,
			MeanInterval: *mean, Seed: *seed,
		}, *csv)
	}
	if !*cross && !*demo {
		*cross = true
	}

	if *cross {
		cfg := experiments.Fig7Config{
			K: *k, LinkMbps: *mbps, Flows: *flows, FlowBytes: *size,
			MeanInterval: *mean, Seed: *seed,
		}
		fmt.Fprintf(stdout, "cross-validating %dx%d 2D torus, %d x %d-byte flows at %v mean arrival, %.0f Mbps links\n\n",
			*k, *k, *flows, *size, *mean, *mbps)
		res, err := experiments.Fig7(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Table())
		fmt.Fprintf(stdout, "median throughput gap: %.1f%%\n", 100*res.MedianThroughputGap())
	}

	if *demo {
		return runDemo(stdout, *k, *mbps, *flows, *size, *mean, *seed)
	}
	return nil
}

// runFaults replays one fault schedule on both backends and compares them
// (the fault-injection analogue of the Figure 7 cross-validation).
func runFaults(stdout io.Writer, arg string, cfg experiments.FaultSweepConfig, csv bool) error {
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
	fmt.Fprintf(stdout, "fault sweep: %dx%d 2D torus, %d x %d-byte flows at %v mean arrival, %.0f Mbps links\nschedule: %s\n\n",
		cfg.K, cfg.K, cfg.Flows, cfg.FlowBytes, cfg.MeanInterval, cfg.LinkMbps, sched)
	res, err := experiments.FaultSweep(cfg)
	if err != nil {
		return err
	}
	t := res.Table()
	if csv {
		fmt.Fprint(stdout, "# ", t.Title, "\n", t.CSV())
	} else {
		fmt.Fprintln(stdout, t)
	}
	fmt.Fprintf(stdout, "expected reroute waves: %d, agreement (20%% + 2 flows): %v\n",
		res.Waves, res.Agree(0.2, 2))
	return nil
}

func runDemo(stdout io.Writer, k int, mbps float64, flows int, size int64, mean time.Duration, seed int64) error {
	g, err := topology.NewTorus(k, 2)
	if err != nil {
		return err
	}
	rack, err := emu.New(emu.Config{
		Graph: g, LinkMbps: mbps, Headroom: 0.05,
		Protocol: routing.RPS, Seed: seed,
	})
	if err != nil {
		return err
	}
	rack.Start()
	defer rack.Stop()
	fmt.Fprintf(stdout, "live rack: %d nodes, %.0f Mbps virtual links\n", g.Nodes(), mbps)
	var handles []*emu.Flow
	for i := 0; i < flows; i++ {
		src := topology.NodeID(i % g.Nodes())
		dst := topology.NodeID((i*7 + 3) % g.Nodes())
		if src == dst {
			continue
		}
		f, err := rack.StartFlow(src, dst, size, 1, 0)
		if err != nil {
			return err
		}
		handles = append(handles, f)
		time.Sleep(mean / 4)
	}
	for _, f := range handles {
		if err := f.Wait(5 * time.Minute); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "flow %v: %.1f Mbps, FCT %v\n", f.Info().ID, f.Throughput()/1e6, f.FCT().Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "drops: %d\n", rack.Drops())
	return nil
}
