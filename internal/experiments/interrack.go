package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// InterRackConfig sizes the intra- vs inter-rack traffic-mix experiment:
// a ring of 2D-torus racks joined by boundary cables, driven at several
// inter-rack flow fractions on the sharded engine (DESIGN.md §14). The
// same arrival times and flow sizes are replayed at every mix — only the
// source/destination pairs are rewritten — so the mix fraction is the sole
// variable between runs.
type InterRackConfig struct {
	Racks   int // racks in the ring
	K       int // per-rack torus radix (each rack is a K×K 2D torus)
	Bridges int // boundary cables between each adjacent rack pair

	LinkGbps float64
	PropLat  simtime.Time

	Flows     int
	Tau       simtime.Time // mean flow inter-arrival time
	FlowBytes int64        // fixed flow size (0 = the §5.2 Pareto mix)
	Seed      int64
	Reliable  bool

	// Shards is sim.RunConfig.Shards: ≤ 1 runs one shard owning the whole
	// fabric, > 1 the rack partition with up to Shards workers. The mix table
	// is identical at every value; only ShardUtilTable needs the partition.
	Shards int
	// Horizon hard-stops each run (sim.RunConfig.MaxTime).
	Horizon simtime.Time

	Mixes []float64 // inter-rack flow fractions to sweep, each in [0, 1]
}

// DefaultInterRack is the test-scale sweep: 4 racks of 3×3 torus (36
// nodes), small enough for `go test` and the race detector.
func DefaultInterRack() InterRackConfig {
	return InterRackConfig{
		Racks: 4, K: 3, Bridges: 2,
		LinkGbps: 10, PropLat: 100 * simtime.Nanosecond,
		Flows: 120, Tau: 100 * simtime.Microsecond,
		FlowBytes: 128 << 10, Seed: 1,
		Horizon: 50 * simtime.Millisecond,
		Mixes:   []float64{0, 0.25, 0.5, 1},
	}
}

// Validate rejects a sweep Fabric or the traffic generator cannot build: the
// Scale checks on the per-rack torus and the workload, a ring of at least
// two racks, and between one bridge and one per rack node (Fabric spreads
// them over distinct nodes).
func (c InterRackConfig) Validate() error {
	if err := (Scale{K: c.K, Dims: 2, LinkGbps: c.LinkGbps, Flows: c.Flows, Tau: c.Tau}).Validate(); err != nil {
		return err
	}
	if c.Racks < 2 {
		return fmt.Errorf("interrack sweep needs at least two racks (got %d)", c.Racks)
	}
	if c.Bridges < 1 || c.Bridges > c.K*c.K {
		return fmt.Errorf("bridges per rack pair must be between 1 and k*k = %d (got %d)", c.K*c.K, c.Bridges)
	}
	return nil
}

// Fabric builds the multi-rack ring: Racks K×K tori, each joined to its
// ring successor by Bridges cables spread around the rack perimeter. The
// config must be Validate-clean.
func (c InterRackConfig) Fabric() *topology.Graph {
	subs := make([]*topology.Graph, c.Racks)
	for i := range subs {
		g, err := topology.NewTorus(c.K, 2)
		if err != nil {
			panic(err)
		}
		subs[i] = g
	}
	per := subs[0].Nodes()
	step := per / c.Bridges
	if step == 0 {
		step = 1
	}
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
func (c InterRackConfig) arrivals(g *topology.Graph, mix float64) []trafficgen.Arrival {
	cfg := trafficgen.PoissonConfig{
		Nodes: g.Nodes(), MeanInterval: c.Tau, Count: c.Flows, Seed: c.Seed,
	}
	var arr []trafficgen.Arrival
	if c.FlowBytes > 0 {
		arr = trafficgen.FixedSize(cfg, c.FlowBytes)
	} else {
		arr = trafficgen.Poisson(cfg)
	}
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
	Mix      float64
	Results  *sim.Results
	Handoffs uint64 // total cross-shard handoffs (0 for serial runs)
}

// InterRackResult is the full sweep.
type InterRackResult struct {
	Cfg  InterRackConfig
	Runs []InterRackRun
}

// InterRack runs the intra- vs inter-rack sweep: one simulation per mix
// fraction over the same fabric and arrival process.
func InterRack(cfg InterRackConfig) *InterRackResult {
	g := cfg.Fabric()
	res := &InterRackResult{Cfg: cfg}
	for _, mix := range cfg.Mixes {
		r := sim.Run(sim.RunConfig{
			Graph:     g,
			Net:       sim.NetConfig{LinkGbps: cfg.LinkGbps, PropDelay: cfg.PropLat},
			Transport: sim.TransportR2C2,
			R2C2: sim.R2C2Config{
				Headroom: 0.05, Protocol: routing.RPS,
				Recompute: 100 * simtime.Microsecond,
				Reliable:  cfg.Reliable, RTO: 300 * simtime.Microsecond,
				Seed: cfg.Seed,
			},
			Arrivals: cfg.arrivals(g, mix),
			MaxTime:  cfg.Horizon,
			Shards:   cfg.Shards,
		})
		run := InterRackRun{Mix: mix, Results: r}
		for _, st := range r.ShardStats {
			run.Handoffs += st.Handoffs
		}
		res.Runs = append(res.Runs, run)
	}
	return res
}

// MixTable reports the sweep's deterministic half: completion, FCT
// percentiles and boundary traffic per mix fraction. Byte-identical at
// every Shards value (the wall-clock ShardStats fields are excluded).
func (r *InterRackResult) MixTable() *Table {
	t := &Table{
		Title:  "intra- vs inter-rack traffic mix (sharded engine)",
		Header: []string{"mix", "completed", "incomplete", "fct_p50_us", "fct_p99_us", "handoffs", "events", "end_ms"},
	}
	for _, run := range r.Runs {
		t.AddRow(
			f2(run.Mix),
			strconv.Itoa(run.Results.Completed),
			strconv.Itoa(run.Results.Incomplete),
			g3(run.Results.AllFCT.Percentile(50)*1e6),
			g3(run.Results.AllFCT.Percentile(99)*1e6),
			strconv.FormatUint(run.Handoffs, 10),
			strconv.FormatUint(run.Results.Events, 10),
			f3(run.Results.EndTime.Seconds()*1e3),
		)
	}
	return t
}

// ShardUtilTable reports per-shard execution statistics for every sharded
// run of the sweep — the CI smoke's utilisation artifact. busy_ms,
// ctrl_ms and ctrl_us_tick are wall-clock measurements and legitimately
// vary run to run; nodes, events, handoffs, epochs (the run's lookahead
// windows in which any shard held an event) and active_epochs (those in
// which this shard did) are deterministic. ctrl_ms
// is each shard's total control-plane time (ticks, reduction merges and
// the allocator run, attributed to the shard that executed them), and
// ctrl_us_tick divides it across the run's recomputation rounds.
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

// String summarises the configuration for log headers.
func (c InterRackConfig) String() string {
	return fmt.Sprintf("%d racks x %dx%d torus (%d nodes), %d bridges/pair, %d flows, tau=%v, shards=%d",
		c.Racks, c.K, c.K, c.Racks*c.K*c.K, c.Bridges, c.Flows, c.Tau, c.Shards)
}
