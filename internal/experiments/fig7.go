package experiments

import (
	"fmt"
	"time"

	"r2c2/internal/emu"
	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/stats"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// Fig7Config scales the emulator/simulator cross-validation. The paper
// runs 1,000 × 10 MB flows over a 4x4 2D torus with 5 Gbps virtual links
// and 1 ms Poisson arrivals on a 16-server RDMA cluster; in-process
// emulation uses slower virtual links and smaller flows, which preserves
// the comparison (both platforms run at the same scaled capacity).
type Fig7Config struct {
	K            int     // 2D torus radix (paper: 4)
	LinkMbps     float64 // virtual link bandwidth (paper: 5000)
	Flows        int     // flow count (paper: 1000)
	FlowBytes    int64   // flow size (paper: 10 MB)
	MeanInterval time.Duration
	Seed         int64
}

// DefaultFig7 is a laptop-friendly configuration.
func DefaultFig7() Fig7Config {
	return Fig7Config{K: 4, LinkMbps: 200, Flows: 60, FlowBytes: 1 << 20,
		MeanInterval: 10 * time.Millisecond, Seed: 1}
}

// Fig7Result compares flow-throughput and max-queue-occupancy
// distributions between the emulated rack and the packet-level simulator.
type Fig7Result struct {
	EmuThroughput, SimThroughput stats.Sample // bits/s per flow
	EmuMaxQueue, SimMaxQueue     stats.Sample // bytes per port
	EmuDrops, SimDrops           uint64
}

// validateEmuWorkload rejects the workload sizes of a sim-vs-emu comparison
// (Fig7, the fault sweep) that the traffic generator would panic on or that
// no link could carry; the torus radix is checked by topology.NewTorus.
func validateEmuWorkload(flows int, flowBytes int64, interval time.Duration, linkMbps float64) error {
	switch {
	case flows < 1:
		return fmt.Errorf("need at least one flow (got %d)", flows)
	case interval <= 0:
		return fmt.Errorf("mean flow inter-arrival must be positive (got %v)", interval)
	case flowBytes <= 0:
		return fmt.Errorf("flow size must be positive (got %d bytes)", flowBytes)
	case !(linkMbps > 0):
		return fmt.Errorf("link rate must be positive (got %v Mbps)", linkMbps)
	}
	return nil
}

// Fig7 replays the identical flow sequence on both platforms (§5.1).
func Fig7(cfg Fig7Config) (*Fig7Result, error) {
	if err := validateEmuWorkload(cfg.Flows, cfg.FlowBytes, cfg.MeanInterval, cfg.LinkMbps); err != nil {
		return nil, err
	}
	g, err := topology.NewTorus(cfg.K, 2)
	if err != nil {
		return nil, err
	}
	arrivals := trafficgen.FixedSize(trafficgen.PoissonConfig{
		Nodes:        g.Nodes(),
		MeanInterval: simtime.Time(cfg.MeanInterval / time.Nanosecond * 1000),
		Count:        cfg.Flows,
		Seed:         cfg.Seed,
	}, cfg.FlowBytes)

	res := &Fig7Result{}

	// --- Emulated rack (wall clock) ---
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
	start := time.Now()
	var handles []*emu.Flow
	for _, a := range arrivals {
		at := start.Add(time.Duration(a.At / 1000)) // ps -> ns
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		f, err := rack.StartFlow(a.Src, a.Dst, a.SizeBytes, a.Weight, a.Priority)
		if err != nil {
			rack.Stop()
			return nil, err
		}
		handles = append(handles, f)
	}
	for _, f := range handles {
		if err := f.Wait(5 * time.Minute); err != nil {
			rack.Stop()
			return nil, err
		}
		res.EmuThroughput.Add(f.Throughput())
	}
	for _, q := range rack.MaxQueueBytes() {
		res.EmuMaxQueue.Add(float64(q))
	}
	res.EmuDrops = rack.Drops()
	rack.Stop()

	// --- Packet-level simulator, identical workload and capacity ---
	out := sim.Run(sim.RunConfig{
		Graph: g,
		Net: sim.NetConfig{
			LinkGbps:  cfg.LinkMbps / 1000,
			PropDelay: 10 * simtime.Microsecond, // in-process hop handoff cost
		},
		Transport: sim.TransportR2C2,
		R2C2: sim.R2C2Config{
			Headroom:  0.05,
			Recompute: 2 * simtime.Millisecond,
			Protocol:  routing.RPS,
			Seed:      cfg.Seed,
		},
		Arrivals: arrivals,
		MaxTime:  arrivals[len(arrivals)-1].At + 10*simtime.Second,
	})
	for _, rec := range out.Flows {
		if rec.Done {
			res.SimThroughput.Add(rec.Throughput())
		}
	}
	res.SimMaxQueue = out.MaxQueue
	res.SimDrops = out.Drops
	return res, nil
}

// Table renders the cross-validation comparison.
func (r *Fig7Result) Table() *Table {
	t := &Table{Title: "Figure 7: emulator vs simulator cross-validation",
		Header: []string{"metric", "emulator", "simulator"}}
	for _, p := range []float64{25, 50, 75, 95} {
		t.AddRow("throughput p"+f2(p),
			g3(r.EmuThroughput.Percentile(p)), g3(r.SimThroughput.Percentile(p)))
	}
	t.AddRow("max-queue p50", f2(r.EmuMaxQueue.Percentile(50)), f2(r.SimMaxQueue.Percentile(50)))
	t.AddRow("max-queue p99", f2(r.EmuMaxQueue.Percentile(99)), f2(r.SimMaxQueue.Percentile(99)))
	t.AddRow("drops", f2(float64(r.EmuDrops)), f2(float64(r.SimDrops)))
	return t
}

// MedianThroughputGap returns |emu - sim| / sim for the median flow
// throughput — the headline cross-validation number.
func (r *Fig7Result) MedianThroughputGap() float64 {
	s := r.SimThroughput.Median()
	if s == 0 {
		return 0
	}
	d := r.EmuThroughput.Median() - s
	if d < 0 {
		d = -d
	}
	return d / s
}
