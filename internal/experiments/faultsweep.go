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

// emuWorkload expands a CheckEmu-clean workload into the K×K 2D torus and
// the seeded fixed-size arrivals both backends replay, after validating
// sched against the torus.
func (c Config) emuWorkload(sched faults.Schedule) (*topology.Graph, []trafficgen.Arrival, error) {
	if err := c.CheckEmu(); err != nil {
		return nil, nil, err
	}
	g, err := topology.NewTorus(c.K, 2)
	if err != nil {
		return nil, nil, err
	}
	if err := sched.Validate(g); err != nil {
		return nil, nil, err
	}
	return g, c.workload(g, c.Tau), nil
}

// simConfig is the simulator's side of a sim-vs-emu comparison: the
// emulator's capacity, a 10 µs hop (the in-process handoff cost), and
// R2C2 recomputing every 2 ms as the rack does.
func simConfig(c Config, g *topology.Graph, arrivals []trafficgen.Arrival, sched faults.Schedule) sim.RunConfig {
	return sim.RunConfig{
		Graph: g,
		Net: sim.NetConfig{
			LinkGbps:  c.LinkGbps,
			PropDelay: 10 * simtime.Microsecond,
			LossSeed:  c.Seed,
		},
		Transport: sim.TransportR2C2,
		R2C2: sim.R2C2Config{
			Headroom:  0.05,
			Recompute: 2 * simtime.Millisecond,
			Protocol:  routing.RPS,
			Seed:      c.Seed,
		},
		Arrivals: arrivals,
		Faults:   sched,
		MaxTime:  arrivals[len(arrivals)-1].At + simtime.Time(sched.Horizon()/time.Nanosecond)*simtime.Nanosecond + 10*simtime.Second,
	}
}

// Replay starts c's workload on a live emulated rack in wall-clock time.
// The caller waits on the flows and stops the rack.
func Replay(c Config) (*emu.Rack, []*emu.Flow, error) {
	g, arrivals, err := c.emuWorkload(faults.Schedule{})
	if err != nil {
		return nil, nil, err
	}
	rack, flows, _, err := replay(c, g, arrivals, faults.Schedule{})
	return rack, flows, err
}

// replay starts an emulated rack for c over g, schedules sched on it, and
// starts every arrival at its offset in wall-clock time. The caller stops
// the rack.
func replay(c Config, g *topology.Graph, arrivals []trafficgen.Arrival, sched faults.Schedule) (*emu.Rack, []*emu.Flow, time.Time, error) {
	rack, err := emu.New(emu.Config{
		Graph:     g,
		LinkMbps:  c.LinkGbps * 1000,
		Headroom:  0.05,
		Recompute: 2 * time.Millisecond,
		Protocol:  routing.RPS,
		Seed:      c.Seed,
	})
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	rack.Start()
	rack.ApplyFaults(sched)
	start := time.Now()
	handles := make([]*emu.Flow, 0, len(arrivals))
	for _, a := range arrivals {
		if d := time.Until(start.Add(wallClock(a.At))); d > 0 {
			time.Sleep(d)
		}
		f, err := rack.StartFlow(a.Src, a.Dst, a.SizeBytes, a.Weight, a.Priority)
		if err != nil {
			rack.Stop()
			return nil, nil, time.Time{}, err
		}
		handles = append(handles, f)
	}
	return rack, handles, start, nil
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
func FaultSweepSim(c Config, sched faults.Schedule) (*FaultRunStats, error) {
	g, arrivals, err := c.emuWorkload(sched)
	if err != nil {
		return nil, err
	}
	out := sim.Run(simConfig(c, g, arrivals, sched))
	st := &FaultRunStats{Reroutes: out.FailureReroutes, Drops: out.Drops}
	dead := sched.DeadNodes(g.Nodes())
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
func FaultSweepEmu(c Config, sched faults.Schedule) (*FaultRunStats, error) {
	g, arrivals, err := c.emuWorkload(sched)
	if err != nil {
		return nil, err
	}
	rack, handles, start, err := replay(c, g, arrivals, sched)
	if err != nil {
		return nil, err
	}
	defer rack.Stop()
	// One absolute deadline for the whole run: flows that lost bytes to a
	// fault window will never finish (no retransmission), and must not
	// serialise long waits. The fixed slack dominates at test scale and
	// covers race-detector slowdowns.
	xfer := time.Duration(float64(c.FlowBytes*8*int64(c.Flows)) / (c.LinkGbps * 1e9) * float64(time.Second))
	deadline := start.Add(sched.Horizon() + 4*xfer + 8*time.Second)
	st := &FaultRunStats{}
	dead := sched.DeadNodes(g.Nodes())
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
func FaultSweep(c Config, sched faults.Schedule) (*FaultSweepResult, error) {
	simStats, err := FaultSweepSim(c, sched)
	if err != nil {
		return nil, err
	}
	emuStats, err := FaultSweepEmu(c, sched)
	if err != nil {
		return nil, err
	}
	return &FaultSweepResult{Sim: *simStats, Emu: *emuStats,
		Total: c.Flows, Waves: sched.Waves()}, nil
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
	return faultTable("Fault sweep: simulator vs emulator under the same schedule",
		[]string{"simulator", "emulator"}, &r.Sim, &r.Emu)
}

// SimTable renders a single-backend run (`r2c2 sim -faults`).
func (st *FaultRunStats) SimTable(sched faults.Schedule) *Table {
	t := faultTable("Fault sweep: packet-level simulator", []string{"value"}, st)
	t.AddRow("expected waves", strconv.Itoa(sched.Waves()))
	return t
}

// faultTable renders one column per backend run.
func faultTable(title string, cols []string, runs ...*FaultRunStats) *Table {
	t := &Table{Title: title, Header: append([]string{"metric"}, cols...)}
	row := func(metric string, cell func(*FaultRunStats) string) {
		cells := []string{metric}
		for _, st := range runs {
			cells = append(cells, cell(st))
		}
		t.AddRow(cells...)
	}
	row("completed", func(st *FaultRunStats) string { return strconv.Itoa(st.Completed) })
	row("abandoned", func(st *FaultRunStats) string { return strconv.Itoa(st.Abandoned) })
	row("incomplete", func(st *FaultRunStats) string { return strconv.Itoa(st.Incomplete) })
	row("fct p50 (s)", func(st *FaultRunStats) string { return g3(st.FCT.Percentile(50)) })
	row("fct p95 (s)", func(st *FaultRunStats) string { return g3(st.FCT.Percentile(95)) })
	row("reroutes", func(st *FaultRunStats) string { return strconv.FormatUint(st.Reroutes, 10) })
	row("drops", func(st *FaultRunStats) string { return strconv.FormatUint(st.Drops, 10) })
	return t
}

// parseScheduleArg reads a -faults flag value without a topology: a
// generator seed for "gen:<seed>", anything else through faults.Parse (DSL
// or JSON).
func parseScheduleArg(arg string) (seed int64, sched faults.Schedule, gen bool, err error) {
	if rest, ok := strings.CutPrefix(arg, "gen:"); ok {
		if seed, err = strconv.ParseInt(rest, 10, 64); err != nil {
			err = fmt.Errorf("faultsweep: bad gen seed %q: %v", rest, err)
		}
		return seed, sched, true, err
	}
	sched, err = faults.Parse(arg)
	return 0, sched, false, err
}

// CheckScheduleArg reports a malformed -faults flag value. It builds no
// topology: ScheduleArg checks the endpoints.
func CheckScheduleArg(arg string) error {
	_, _, _, err := parseScheduleArg(arg)
	return err
}

// ScheduleArg resolves a -faults flag value: "gen:<seed>" generates a
// seeded random schedule sized to `horizon` (the workload's arrival
// window), anything else goes through faults.Parse (DSL or JSON). The
// schedule is validated against g either way.
func ScheduleArg(g *topology.Graph, arg string, horizon time.Duration) (faults.Schedule, error) {
	seed, sched, gen, err := parseScheduleArg(arg)
	if err != nil {
		return faults.Schedule{}, err
	}
	if gen {
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
	if err := sched.Validate(g); err != nil {
		return faults.Schedule{}, err
	}
	return sched, nil
}
