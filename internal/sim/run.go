package sim

import (
	"fmt"

	"r2c2/internal/faults"
	"r2c2/internal/simtime"
	"r2c2/internal/stats"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
	"r2c2/internal/wire"
)

// Transport selects which stack a run uses.
type Transport int

// The transports of the §5.2 comparison.
const (
	TransportR2C2 Transport = iota
	TransportTCP
	TransportPFQ
)

// String returns the transport name.
func (t Transport) String() string {
	switch t {
	case TransportR2C2:
		return "R2C2"
	case TransportTCP:
		return "TCP"
	case TransportPFQ:
		return "PFQ"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// Flow size classes used throughout the evaluation (§5.2).
const (
	ShortFlowMax = 100e3 // bytes; FCT is reported for flows under this
	LongFlowMin  = 1e6   // bytes; throughput is reported for flows over this
)

// RunConfig describes one simulation experiment.
type RunConfig struct {
	Graph     *topology.Graph
	Net       NetConfig
	Transport Transport
	R2C2      R2C2Config
	PFQSeed   int64

	Arrivals []trafficgen.Arrival
	// Faults is an optional fault schedule injected during the run
	// (TransportR2C2 only; the other transports have no failure handling).
	Faults faults.Schedule
	// MaxTime hard-stops the simulation; incomplete flows are reported as
	// such. Zero means 100 ms after the last arrival.
	MaxTime simtime.Time

	// Shards > 1 is the worker count: the fabric is cut into min(Shards,
	// racks) shards of contiguous racks (shard.go), one per worker, each
	// driving its own engine, and the workers execute them in parallel under
	// a conservative-lookahead epoch barrier. Every partition reproduces the
	// one-shard run, so Results are identical at every value; only
	// ShardStats depends on it. Requires TransportR2C2 and a rack-structured
	// graph (ConnectRacks or NewFoldedClos). 0 or 1 runs one shard that owns
	// the whole fabric, through the same loop: the reference every
	// partition's results are held to. Each ρ tick, every shard recomputes
	// the rates of the nodes it owns from their own views, exactly as one
	// shard does for all of them (DESIGN.md §15).
	Shards int
}

// Results aggregates everything the §5 figures need from one run.
type Results struct {
	Transport  Transport
	Flows      []*FlowRecord
	Completed  int
	Incomplete int

	ShortFCT       stats.Sample // seconds, flows < 100 KB
	LongThroughput stats.Sample // bits/s, flows > 1 MB
	AllFCT         stats.Sample // seconds, all completed flows
	MaxQueue       stats.Sample // bytes, per output port

	Reorder         stats.Counts // reorder-buffer occupancy, packets (R2C2 only)
	FailureReroutes uint64       // fabric rebuilds after faults (R2C2 only)
	Drops           uint64
	Retransmissions uint64 // TCP only
	BcastBytes      uint64 // broadcast bytes on the wire (R2C2 only)
	Recomputations  uint64 // allocator invocations (R2C2 only)
	RecomputeRounds uint64
	// Events counts engine events; Hops counts link traversals (data, ack
	// and broadcast packets alike). A hop costs one event, its arrival, plus
	// a port wake-up when another packet waited behind it, so on a packet
	// workload Events ≈ Hops + wake-ups + pacing events.
	Events  uint64
	Hops    uint64
	EndTime simtime.Time

	// ShardStats reports per-shard execution statistics of a partitioned run
	// (RunConfig.Shards > 1), one entry per shard; nil for a run of one
	// shard. Deliberately excluded from byte-identity comparisons: its
	// wall-clock fields vary run to run, and its shards follow the worker
	// count.
	ShardStats []ShardStat
}

// Run executes one experiment: it replays the arrival list over the chosen
// transport and collects the statistics every figure of §5 is built from.
// Every run is a set of shards stepped through one epoch loop (shard.go);
// without RunConfig.Shards the set is a single shard owning the whole fabric.
func Run(cfg RunConfig) *Results {
	if cfg.Graph == nil {
		panic("sim: RunConfig.Graph is required")
	}
	if len(cfg.Arrivals) == 0 {
		panic("sim: no arrivals")
	}
	if cfg.Faults.Len() > 0 && cfg.Transport != TransportR2C2 {
		panic(fmt.Sprintf("sim: fault schedules require TransportR2C2, got %v", cfg.Transport))
	}
	// A flow's ID is its source plus a 16-bit per-source sequence number
	// (wire.FlowID): one more flow and the sequence wraps onto the first
	// flow's ID, whose ledger record it would overwrite and whose finish
	// every other node has already seen. The per-source counts also size
	// the flow-table rows.
	perSrc := make([]int, cfg.Graph.Nodes())
	for _, a := range cfg.Arrivals {
		if perSrc[a.Src]++; perSrc[a.Src] > wire.MaxFlowsPerSource {
			panic(fmt.Sprintf("sim: more than %d arrivals from node %d: its flow sequence numbers would wrap", wire.MaxFlowsPerSource, a.Src))
		}
	}
	sr := newShardedRun(cfg, perSrc)
	defer sr.workers.stop()
	return sr.merge(sr.run())
}
