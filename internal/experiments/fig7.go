package experiments

import (
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/sim"
	"r2c2/internal/stats"
)

// Fig7Result compares flow-throughput and max-queue-occupancy
// distributions between the emulated rack and the packet-level simulator.
type Fig7Result struct {
	EmuThroughput, SimThroughput stats.Sample // bits/s per flow
	EmuMaxQueue, SimMaxQueue     stats.Sample // bytes per port
	EmuDrops, SimDrops           uint64
}

// Fig7 replays the identical flow sequence on both platforms (§5.1): c's
// Flows fixed-size flows of FlowBytes, at mean inter-arrival Tau, over a
// K×K 2D torus of LinkGbps links. The paper runs 1,000 × 10 MB flows over
// 5 Gbps virtual links with 1 ms Poisson arrivals on a 16-server RDMA
// cluster; in-process emulation uses slower virtual links and smaller
// flows, which preserves the comparison (both platforms run at the same
// scaled capacity).
func Fig7(c Config) (*Fig7Result, error) {
	g, arrivals, err := c.emuWorkload(faults.Schedule{})
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	rack, handles, _, err := replay(c, g, arrivals, faults.Schedule{})
	if err != nil {
		return nil, err
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

	out := sim.Run(simConfig(c, g, arrivals, faults.Schedule{}))
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
