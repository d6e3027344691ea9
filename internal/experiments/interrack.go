package experiments

import (
	"math/rand"
	"strconv"

	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// The intra- vs inter-rack traffic-mix experiment drives a ring of 2D-torus
// racks joined by boundary cables at several inter-rack flow fractions on
// the sharded engine (DESIGN.md §14). The same arrival times and flow sizes
// are replayed at every mix — only the source/destination pairs are
// rewritten — so the mix fraction is the sole variable between runs.

// Fabric builds the multi-rack ring: Racks K×K tori, each joined to its
// ring successor by Bridges cables spread around the rack perimeter. The
// config must be CheckRing-clean.
func (c Config) Fabric() *topology.Graph {
	subs := make([]*topology.Graph, c.Racks)
	for i := range subs {
		g, err := topology.NewTorus(c.K, 2)
		if err != nil {
			panic(err)
		}
		subs[i] = g
	}
	per := subs[0].Nodes()
	step := per / c.Bridges // at least 1: CheckRing caps Bridges at per
	var bridges []topology.Bridge
	for i := 0; i < c.Racks; i++ {
		j := (i + 1) % c.Racks
		for b := 0; b < c.Bridges; b++ {
			a := (b * step) % per
			bridges = append(bridges, topology.Bridge{
				RackA: i, RackB: j,
				NodeA: topology.NodeID(a),
				NodeB: topology.NodeID((a + per/2) % per),
			})
		}
	}
	g, err := topology.ConnectRacks(subs, bridges)
	if err != nil {
		panic(err)
	}
	return g
}

// arrivals generates the workload for one mix fraction: the base Poisson
// process fixes every arrival time and size, then each flow's pair is
// rewritten — destination inside the source's rack below the mix
// threshold, outside it above — from an RNG stream independent of the base
// generator, so changing the mix never perturbs the offered load.
func (c Config) arrivals(g *topology.Graph, mix float64) []trafficgen.Arrival {
	arr := c.workload(g, c.Tau)
	per := g.Nodes() / c.Racks
	rng := rand.New(rand.NewSource(c.Seed + 1))
	for i := range arr {
		src := arr[i].Src
		rack := int(src) / per
		cross := rng.Float64() < mix
		var dst topology.NodeID
		if cross {
			// Uniform over the other racks' nodes.
			d := rng.Intn(g.Nodes() - per)
			if d >= rack*per {
				d += per
			}
			dst = topology.NodeID(d)
		} else {
			// Uniform over the source rack, excluding the source itself.
			d := rng.Intn(per - 1)
			if topology.NodeID(rack*per+d) >= src {
				d++
			}
			dst = topology.NodeID(rack*per + d)
		}
		arr[i].Dst = dst
	}
	return arr
}

// InterRackRun is one mix point of the sweep.
type InterRackRun struct {
	Mix     float64
	Results *sim.Results
}

// InterRackResult is the full sweep.
type InterRackResult struct {
	Runs []InterRackRun
}

// InterRack runs the intra- vs inter-rack sweep: one simulation per mix
// fraction over the same fabric and arrival process. Shards ≤ 1 runs one
// shard owning the whole fabric, > 1 one shard of contiguous racks per
// worker; the mix table is identical at every value.
func InterRack(cfg Config) *InterRackResult {
	g := cfg.Fabric()
	res := &InterRackResult{}
	for _, mix := range cfg.Mixes {
		rc := runConfig(g, cfg, sim.TransportR2C2, cfg.arrivals(g, mix), 0.05, 100*simtime.Microsecond)
		rc.R2C2.RTO, rc.MaxTime, rc.Shards = 300*simtime.Microsecond, cfg.Horizon, cfg.Shards
		res.Runs = append(res.Runs, InterRackRun{Mix: mix, Results: sim.Run(rc)})
	}
	return res
}

// MixTable reports the sweep's simulated results: completion, FCT
// percentiles, events and end time per mix fraction. Byte-identical at
// every Shards value, 1 included; boundary traffic depends on the partition
// and is in ShardUtilTable.
func (r *InterRackResult) MixTable() *Table {
	t := &Table{
		Title:  "intra- vs inter-rack traffic mix (sharded engine)",
		Header: []string{"mix", "completed", "incomplete", "fct_p50_us", "fct_p99_us", "events", "end_ms"},
	}
	for _, run := range r.Runs {
		t.AddRow(
			f2(run.Mix),
			strconv.Itoa(run.Results.Completed),
			strconv.Itoa(run.Results.Incomplete),
			g3(run.Results.AllFCT.Percentile(50)*1e6),
			g3(run.Results.AllFCT.Percentile(99)*1e6),
			strconv.FormatUint(run.Results.Events, 10),
			f3(run.Results.EndTime.Seconds()*1e3),
		)
	}
	return t
}

// ShardUtilTable reports per-shard execution statistics for every sharded
// run of the sweep — the CI smoke's utilisation artifact, one row per mix
// and shard, so min(Shards, Racks) rows per mix. busy_ms, ctrl_ms and
// ctrl_us_tick are wall-clock measurements and legitimately vary run to
// run; nodes, events, handoffs, epochs (the run's lookahead windows in
// which any shard held an event) and active_epochs (those in which this
// shard did) are deterministic for a worker count. ctrl_ms is each shard's
// total time in recomputation ticks over its own nodes, and ctrl_us_tick
// divides it across the run's recomputation rounds.
func (r *InterRackResult) ShardUtilTable() *Table {
	t := &Table{
		Title:  "per-shard utilisation",
		Header: []string{"mix", "shard", "nodes", "events", "handoffs", "epochs", "active_epochs", "busy_ms", "busy_share", "ctrl_ms", "ctrl_us_tick"},
	}
	for _, run := range r.Runs {
		total := int64(0)
		for _, st := range run.Results.ShardStats {
			total += st.BusyNs
		}
		rounds := run.Results.RecomputeRounds
		for _, st := range run.Results.ShardStats {
			share := 0.0
			if total > 0 {
				share = float64(st.BusyNs) / float64(total)
			}
			perTick := 0.0
			if rounds > 0 {
				perTick = float64(st.CtrlNs) / float64(rounds) / 1e3
			}
			t.AddRow(
				f2(run.Mix),
				strconv.Itoa(st.Shard),
				strconv.Itoa(st.Nodes),
				strconv.FormatUint(st.Events, 10),
				strconv.FormatUint(st.Handoffs, 10),
				strconv.FormatUint(st.Epochs, 10),
				strconv.FormatUint(st.ActiveEpochs, 10),
				f3(float64(st.BusyNs)/1e6),
				f3(share),
				f3(float64(st.CtrlNs)/1e6),
				g3(perTick),
			)
		}
	}
	return t
}
