package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"r2c2/internal/emu"
	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/stats"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// FaultSweepConfig drives the fault-injection cross-validation: the same
// seeded workload and the same fault schedule replayed on the packet-level
// simulator and the emulated rack (§3.2 failure handling, validated the
// way §5.1 validates the fault-free path).
type FaultSweepConfig struct {
	K            int     // 2D torus radix
	LinkMbps     float64 // virtual link bandwidth
	Flows        int
	FlowBytes    int64
	MeanInterval time.Duration
	Seed         int64
	Schedule     faults.Schedule
}

// DefaultFaultSweep is a laptop-friendly configuration; the schedule is
// left for the caller (see ScheduleArg).
func DefaultFaultSweep() FaultSweepConfig {
	return FaultSweepConfig{K: 4, LinkMbps: 200, Flows: 60, FlowBytes: 512 << 10,
		MeanInterval: 5 * time.Millisecond, Seed: 1}
}

// FaultRunStats summarises one backend's run of the schedule.
type FaultRunStats struct {
	Completed  int          // every byte delivered
	Abandoned  int          // an endpoint crashed
	Incomplete int          // bytes lost to a fault window (no retransmission)
	FCT        stats.Sample // seconds, completed flows only
	Reroutes   uint64       // fabric rebuilds (must equal Schedule.Waves())
	Drops      uint64
}

// FaultSweepResult pairs the two backends over one schedule.
type FaultSweepResult struct {
	Sim, Emu FaultRunStats
	Total    int
	Waves    int
}

// graphAndArrivals expands the config into the shared topology and the
// seeded workload both backends replay.
func (cfg FaultSweepConfig) graphAndArrivals() (*topology.Graph, []trafficgen.Arrival, error) {
	if err := validateEmuWorkload(cfg.Flows, cfg.FlowBytes, cfg.MeanInterval, cfg.LinkMbps); err != nil {
		return nil, nil, err
	}
	g, err := topology.NewTorus(cfg.K, 2)
	if err != nil {
		return nil, nil, err
	}
	if err := cfg.Schedule.Validate(g); err != nil {
		return nil, nil, err
	}
	arrivals := trafficgen.FixedSize(trafficgen.PoissonConfig{
		Nodes:        g.Nodes(),
		MeanInterval: simtime.Time(cfg.MeanInterval / time.Nanosecond * 1000),
		Count:        cfg.Flows,
		Seed:         cfg.Seed,
	}, cfg.FlowBytes)
	return g, arrivals, nil
}

// classify buckets a finished workload entry. Both backends use the same
// rule: abandoned means an endpoint was scheduled to crash — whether the
// flow happened to finish before the crash is a timing question the
// tolerance check absorbs, not a classification one.
func classify(st *FaultRunStats, dead []bool, src, dst topology.NodeID, done bool, fctSeconds float64) {
	switch {
	case done:
		st.Completed++
		st.FCT.Add(fctSeconds)
	case dead[src] || dead[dst]:
		st.Abandoned++
	default:
		st.Incomplete++
	}
}

// FaultSweepSim runs the schedule on the packet-level simulator. It is
// fully deterministic: the same config yields byte-identical results.
// Reliability is off to match the emulator, which has no retransmission —
// flows whose packets die in a fault window stay incomplete on both.
func FaultSweepSim(cfg FaultSweepConfig) (*FaultRunStats, error) {
	g, arrivals, err := cfg.graphAndArrivals()
	if err != nil {
		return nil, err
	}
	horizon := simtime.Time(cfg.Schedule.Horizon() / time.Nanosecond * 1000)
	out := sim.Run(sim.RunConfig{
		Graph: g,
		Net: sim.NetConfig{
			LinkGbps:  cfg.LinkMbps / 1000,
			PropDelay: 10 * simtime.Microsecond,
			LossSeed:  cfg.Seed,
		},
		Transport: sim.TransportR2C2,
		R2C2: sim.R2C2Config{
			Headroom:  0.05,
			Recompute: 2 * simtime.Millisecond,
			Protocol:  routing.RPS,
			Seed:      cfg.Seed,
		},
		Arrivals: arrivals,
		Faults:   cfg.Schedule,
		MaxTime:  arrivals[len(arrivals)-1].At + horizon + 10*simtime.Second,
	})
	st := &FaultRunStats{Reroutes: out.FailureReroutes, Drops: out.Drops}
	dead := cfg.Schedule.DeadNodes(g.Nodes())
	for _, rec := range out.Flows {
		var fct float64
		if rec.Done {
			fct = rec.FCT().Seconds()
		}
		classify(st, dead, rec.Src, rec.Dst, rec.Done, fct)
	}
	return st, nil
}

// FaultSweepEmu replays the identical workload and schedule on the
// emulated rack in wall-clock time.
func FaultSweepEmu(cfg FaultSweepConfig) (*FaultRunStats, error) {
	g, arrivals, err := cfg.graphAndArrivals()
	if err != nil {
		return nil, err
	}
	rack, err := emu.New(emu.Config{
		Graph:     g,
		LinkMbps:  cfg.LinkMbps,
		Headroom:  0.05,
		Recompute: 2 * time.Millisecond,
		Protocol:  routing.RPS,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	rack.Start()
	defer rack.Stop()
	rack.ApplyFaults(cfg.Schedule)

	start := time.Now()
	handles := make([]*emu.Flow, 0, len(arrivals))
	for _, a := range arrivals {
		at := start.Add(time.Duration(a.At / 1000)) // ps -> ns
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		f, err := rack.StartFlow(a.Src, a.Dst, a.SizeBytes, a.Weight, a.Priority)
		if err != nil {
			return nil, err
		}
		handles = append(handles, f)
	}
	// One absolute deadline for the whole run: flows that lost bytes to a
	// fault window will never finish (no retransmission), and must not
	// serialise long waits. The fixed slack dominates at test scale and
	// covers race-detector slowdowns.
	xfer := time.Duration(float64(cfg.FlowBytes*8*int64(cfg.Flows)) / (cfg.LinkMbps * 1e6) * float64(time.Second))
	deadline := start.Add(cfg.Schedule.Horizon() + 4*xfer + 8*time.Second)
	st := &FaultRunStats{}
	dead := cfg.Schedule.DeadNodes(g.Nodes())
	for i, f := range handles {
		wait := time.Until(deadline)
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		err := f.Wait(wait)
		done := err == nil
		var fct float64
		if done {
			fct = f.FCT().Seconds()
		}
		classify(st, dead, arrivals[i].Src, arrivals[i].Dst, done, fct)
	}
	st.Reroutes = rack.Reroutes()
	st.Drops = rack.Drops()
	if errs := rack.FaultErrors(); errs != 0 {
		return nil, fmt.Errorf("faultsweep: %d schedule events failed to inject on the emulator", errs)
	}
	return st, nil
}

// FaultSweep runs both backends and pairs the results.
func FaultSweep(cfg FaultSweepConfig) (*FaultSweepResult, error) {
	simStats, err := FaultSweepSim(cfg)
	if err != nil {
		return nil, err
	}
	emuStats, err := FaultSweepEmu(cfg)
	if err != nil {
		return nil, err
	}
	return &FaultSweepResult{Sim: *simStats, Emu: *emuStats,
		Total: cfg.Flows, Waves: cfg.Schedule.Waves()}, nil
}

// Agree reports whether the two backends match within the documented
// tolerance: completed-flow counts within |sim-emu| <= slack + frac*Total,
// the simulator's reroute count EXACTLY the schedule's wave count (it is
// deterministic), and the emulator's within +-1 of it. The slack absorbs
// wall-clock jitter on the emulator — a flow racing a fault window can
// land on either side of it, and an injection delayed into a neighbouring
// detection window merges two reroute waves into one.
func (r *FaultSweepResult) Agree(frac float64, slack int) bool {
	d := r.Sim.Completed - r.Emu.Completed
	if d < 0 {
		d = -d
	}
	if float64(d) > float64(slack)+frac*float64(r.Total) {
		return false
	}
	if r.Sim.Reroutes != uint64(r.Waves) {
		return false
	}
	dw := int64(r.Emu.Reroutes) - int64(r.Waves)
	if dw < 0 {
		dw = -dw
	}
	return dw <= 1
}

// Table renders the cross-validation comparison.
func (r *FaultSweepResult) Table() *Table {
	t := &Table{Title: "Fault sweep: simulator vs emulator under the same schedule",
		Header: []string{"metric", "simulator", "emulator"}}
	t.AddRow("completed", strconv.Itoa(r.Sim.Completed), strconv.Itoa(r.Emu.Completed))
	t.AddRow("abandoned", strconv.Itoa(r.Sim.Abandoned), strconv.Itoa(r.Emu.Abandoned))
	t.AddRow("incomplete", strconv.Itoa(r.Sim.Incomplete), strconv.Itoa(r.Emu.Incomplete))
	for _, p := range []float64{50, 95} {
		t.AddRow(fmt.Sprintf("fct p%.0f (s)", p),
			g3(r.Sim.FCT.Percentile(p)), g3(r.Emu.FCT.Percentile(p)))
	}
	t.AddRow("reroutes", strconv.FormatUint(r.Sim.Reroutes, 10), strconv.FormatUint(r.Emu.Reroutes, 10))
	t.AddRow("drops", strconv.FormatUint(r.Sim.Drops, 10), strconv.FormatUint(r.Emu.Drops, 10))
	return t
}

// SimTable renders a single-backend run (the -faults mode of r2c2-sim).
func (st *FaultRunStats) SimTable(sched faults.Schedule) *Table {
	t := &Table{Title: "Fault sweep: packet-level simulator",
		Header: []string{"metric", "value"}}
	t.AddRow("completed", strconv.Itoa(st.Completed))
	t.AddRow("abandoned", strconv.Itoa(st.Abandoned))
	t.AddRow("incomplete", strconv.Itoa(st.Incomplete))
	for _, p := range []float64{50, 95} {
		t.AddRow(fmt.Sprintf("fct p%.0f (s)", p), g3(st.FCT.Percentile(p)))
	}
	t.AddRow("reroutes", strconv.FormatUint(st.Reroutes, 10))
	t.AddRow("expected waves", strconv.Itoa(sched.Waves()))
	t.AddRow("drops", strconv.FormatUint(st.Drops, 10))
	return t
}

// ScheduleArg resolves a -faults flag value: "gen:<seed>" generates a
// seeded random schedule sized to `horizon` (the workload's arrival
// window), anything else goes through faults.Parse (DSL or JSON). The
// schedule is validated against g either way.
func ScheduleArg(g *topology.Graph, arg string, horizon time.Duration) (faults.Schedule, error) {
	if rest, ok := strings.CutPrefix(arg, "gen:"); ok {
		seed, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return faults.Schedule{}, fmt.Errorf("faultsweep: bad gen seed %q: %v", rest, err)
		}
		// Floor the detection delay well above emulator timer jitter
		// (goroutine scheduling shifts injections by a millisecond or two;
		// a detection window of the same order would randomly merge or
		// split reroute waves between reruns).
		detect := horizon / 50
		if detect < 6*time.Millisecond {
			detect = 6 * time.Millisecond
		}
		return faults.Generate(g, faults.GenConfig{Seed: seed, Horizon: horizon, Detect: detect})
	}
	sched, err := faults.Parse(arg)
	if err != nil {
		return faults.Schedule{}, err
	}
	if err := sched.Validate(g); err != nil {
		return faults.Schedule{}, err
	}
	return sched, nil
}
