package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// TestResultsGolden pins the simulated results themselves: the SHA-256 of
// dumpResults for a dozen small configurations, recorded once and held
// across refactors of the run loop, the flow tables and the transports. The
// byte-identity oracles compare two runs of the same binary, so a change that
// moves both sides alike passes them; TCP and PFQ have no second engine to be
// compared with at all. A digest changes only when a simulated result does —
// re-record it (the failure message prints the new value) in the change that
// means to move it, and say why there.
func TestResultsGolden(t *testing.T) {
	g := torus(t, 4, 2)
	racks := multiRack(t, 4)
	r2 := func(p routing.Protocol) R2C2Config {
		return R2C2Config{Headroom: 0.05, Protocol: p, Recompute: 100 * simtime.Microsecond}
	}
	mixed := smallWorkload(t, g, 120, 20*simtime.Microsecond)
	fixed := func(g *topology.Graph, count int, mean simtime.Time, size int64) []trafficgen.Arrival {
		return trafficgen.FixedSize(trafficgen.PoissonConfig{
			Nodes: g.Nodes(), MeanInterval: mean, Count: count, Seed: 7,
		}, size)
	}
	sched, err := faults.Generate(g, faults.GenConfig{
		Seed: 42, Horizon: 10 * time.Millisecond, Flaps: 2, Crash: true,
		DownFor: 2 * time.Millisecond, Detect: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lossy := faults.Schedule{Events: []faults.Event{
		{At: 100 * time.Microsecond, Kind: faults.LinkDrop, A: 0, B: 1, DropProb: 0.1},
		{At: 100 * time.Microsecond, Kind: faults.LinkDrop, A: 5, B: 6, DropProb: 0.1},
	}}
	reliable := r2(routing.RPS)
	reliable.Reliable, reliable.RTO = true, 300*simtime.Microsecond

	cases := []struct {
		name  string
		cfg   RunConfig
		lossy bool // the point of the case is recovery: packets must be dropped
	}{
		{name: "tcp", cfg: RunConfig{Graph: g, Transport: TransportTCP, Arrivals: mixed, MaxTime: 2 * simtime.Second}},
		{name: "tcp-retransmits", lossy: true,
			cfg: RunConfig{Graph: g, Transport: TransportTCP, Net: NetConfig{QueueBytes: 12 << 10},
				Arrivals: fixed(g, 60, 5*simtime.Microsecond, 128<<10), MaxTime: 2 * simtime.Second}},
		{name: "tcp-truncated", cfg: RunConfig{Graph: g, Transport: TransportTCP,
			Arrivals: fixed(g, 40, 20*simtime.Microsecond, 1<<20), MaxTime: 3 * simtime.Millisecond}},
		{name: "pfq", cfg: RunConfig{Graph: g, Transport: TransportPFQ, PFQSeed: 3, Arrivals: mixed, MaxTime: 2 * simtime.Second}},
		{name: "pfq-default-maxtime", cfg: RunConfig{Graph: racks, Transport: TransportPFQ,
			Arrivals: fixed(racks, 40, 50*simtime.Microsecond, 64<<10)}},
		{name: "r2c2-rps", cfg: RunConfig{Graph: g, R2C2: r2(routing.RPS), Arrivals: mixed, MaxTime: 2 * simtime.Second}},
		{name: "r2c2-dor", cfg: RunConfig{Graph: g, R2C2: r2(routing.DOR), Arrivals: mixed, MaxTime: 2 * simtime.Second}},
		{name: "r2c2-vlb", cfg: RunConfig{Graph: g, R2C2: r2(routing.VLB), Arrivals: mixed}},
		{name: "r2c2-reliable-drops", lossy: true,
			cfg: RunConfig{Graph: g, R2C2: reliable, Net: NetConfig{LossSeed: 5}, Faults: lossy,
				Arrivals: fixed(g, 40, 100*simtime.Microsecond, 256<<10), MaxTime: 200 * simtime.Millisecond}},
		{name: "r2c2-faults", cfg: RunConfig{Graph: g, R2C2: reliable, Faults: sched,
			Arrivals: fixed(g, 40, 300*simtime.Microsecond, 256<<10), MaxTime: 200 * simtime.Millisecond}},
		{name: "racks-shards0", cfg: shardWorkload(t, 0)},
		{name: "racks-shards1", cfg: shardWorkload(t, 1)},
	}
	for _, c := range cases {
		res := Run(c.cfg)
		if res.Completed == 0 {
			t.Errorf("%s: no flow completed; the digest would pin nothing", c.name)
		}
		if c.lossy && res.Drops == 0 {
			t.Errorf("%s: no packet dropped, so nothing had to be recovered", c.name)
		}
		sum := sha256.Sum256(dumpResults(res))
		if got := hex.EncodeToString(sum[:]); got != golden[c.name] {
			t.Errorf("%s: results digest %s, recorded %s (completed %d, incomplete %d, drops %d, retx %d, events %d)",
				c.name, got, golden[c.name], res.Completed, res.Incomplete, res.Drops, res.Retransmissions, res.Events)
		}
	}
}

// golden holds TestResultsGolden's digests, recorded at commit ba2f49e (the
// last one with a serial run loop beside the sharded one).
var golden = map[string]string{
	"tcp":                 "938f76c2fe7d05ef8d2e3d6169ddc7ce86cfc78b7a410f48ee112a1f0df40088",
	"tcp-retransmits":     "211989aef0798d71113d28a968c165d123caf11fffafe9e01f8c5abe77e84ac5",
	"tcp-truncated":       "a2c8f6fc38b1c00d42a9186410518b751e47ffe79ba5bec5c13d69e64175dabb",
	"pfq":                 "d96f097679ac1769928e30006c67e0fc65bc08a5204fd96011dffb2134aafa29",
	"pfq-default-maxtime": "f2c360f037bcb053b030c30b630cb02a3118728d0ae6cc02c8c691a69feba466",
	"r2c2-rps":            "dd28547bac334972e6f5e2e4777363f023a3fd497ae206b330807cc97117397e",
	"r2c2-dor":            "ba6f0635a643d8d17fd181fbd2f1fb19cc3ca5d8cbadf17e2d036556b670a2a3",
	"r2c2-vlb":            "130d50b9ccd4ae800dbfe6063a5e8e89d970538e5b987ed7351f190bd5a9e231",
	"r2c2-reliable-drops": "9b00031f0390491e5d82180fe328849da98a0d85c1346995a2f0236e04921ccb",
	"r2c2-faults":         "70f57d72f53021e0558a2b9f1aba85a3f52622403228c8a0e6dc4e7131eae7d1",
	"racks-shards0":       "3f30b7e644c81bfce0d68db948acdab0d2350769fd444a40ca191e3814f4ff5e",
	"racks-shards1":       "3f30b7e644c81bfce0d68db948acdab0d2350769fd444a40ca191e3814f4ff5e",
}

// tiedArrivals is an arrival list built to stress the order in which
// arrivals are scheduled: two at t = 0, several sharing one picosecond (two
// of them from the same source, so list order decides their flow IDs), some
// exactly on recomputation ticks (multiples of rho), some where the first
// serialisations of the flows started at t = 0 end (an MTU packet's and a
// broadcast's at 10 Gbps), whose port wake-ups carry emission time 0 like
// the arrivals, and the whole list out of time order.
func tiedArrivals(nodes int, rho simtime.Time) []trafficgen.Arrival {
	var arr []trafficgen.Arrival
	add := func(at simtime.Time, src, dst int, size int64) {
		arr = append(arr, trafficgen.Arrival{At: at, Src: topology.NodeID(src % nodes),
			Dst: topology.NodeID(dst % nodes), SizeBytes: size, Weight: 1})
	}
	tie := 37*simtime.Microsecond + 123
	for i := 0; i < 24; i++ {
		add(simtime.Time(i)*7*simtime.Microsecond+simtime.Time(i*i), 3*i+1, 5*i+2, int64(8+i%5)<<10)
	}
	add(0, 0, nodes-1, 48<<10)
	add(tie, 2, 7, 16<<10)
	add(tie, 2, 9, 20<<10)
	add(tie, 11, 4, 24<<10)
	add(tie, 5, 2, 12<<10)
	for k := 1; k <= 3; k++ {
		add(simtime.Time(k)*rho, k, k+6, 32<<10)
		add(simtime.Time(k)*rho, k+3, k, 10<<10)
	}
	for _, size := range []int{MTU, BroadcastBytes} {
		at := simtime.TransmitTime(size, 10)
		add(at, 6, 13, 14<<10)
		add(at, 9, 3, 18<<10)
	}
	// Out of order: reverse the list, then rotate it by a third.
	slices.Reverse(arr)
	third := len(arr) / 3
	return append(arr[third:], arr[:third]...)
}

// TestArrivalTiesByteIdentical pins the dispatch order of arrivals: a
// Results digest per configuration over tiedArrivals, on a 4-ary 3-cube
// under each transport and on the 4-rack ring at one and two shards (which
// must also agree with each other). The digests were recorded while every
// arrival was still armed up front as its own event.
func TestArrivalTiesByteIdentical(t *testing.T) {
	fanOutEveryPhase(t)
	const rho = 50 * simtime.Microsecond
	cube, ring := torus(t, 4, 3), multiRack(t, 4)
	r2 := R2C2Config{Headroom: 0.05, Protocol: routing.RPS, Recompute: rho, Seed: 3}
	reliable := r2
	reliable.Reliable, reliable.RTO = true, 300*simtime.Microsecond
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"cube-r2c2", RunConfig{Graph: cube, R2C2: r2}},
		{"cube-tcp", RunConfig{Graph: cube, Transport: TransportTCP}},
		{"cube-pfq", RunConfig{Graph: cube, Transport: TransportPFQ, PFQSeed: 5}},
		{"ring-shards1", RunConfig{Graph: ring, R2C2: reliable, Shards: 1}},
		{"ring-shards2", RunConfig{Graph: ring, R2C2: reliable, Shards: 2}},
	}
	for _, c := range cases {
		c.cfg.Arrivals = tiedArrivals(c.cfg.Graph.Nodes(), rho)
		c.cfg.MaxTime = 50 * simtime.Millisecond
		res := Run(c.cfg)
		if res.Completed != len(c.cfg.Arrivals) {
			t.Errorf("%s: %d of %d flows completed", c.name, res.Completed, len(c.cfg.Arrivals))
		}
		res.ShardStats = nil // wall-clock fields
		sum := sha256.Sum256(dumpResults(res))
		if got := hex.EncodeToString(sum[:]); got != arrivalGolden[c.name] {
			t.Errorf("%s: results digest %s, recorded %s (events %d)", c.name, got, arrivalGolden[c.name], res.Events)
		}
	}
}

// arrivalGolden holds TestArrivalTiesByteIdentical's digests, recorded at
// commit e79d7af.
var arrivalGolden = map[string]string{
	"cube-r2c2":    "39f7cb2c7243ff51b43f7f6f8ed6d4d25271dcbb7cd41247f6c0e78130615e9a",
	"cube-tcp":     "f038c654287ce8a17eab3326fb763bb715172c0d8925b29bfd5f0e3b86e0d18d",
	"cube-pfq":     "c02767e0d8a8fa3b313ad8cc3b5c0edf765f121b58c9eb7a8bc9556969e118b5",
	"ring-shards1": "f34f2e1a6b4c9516634767c0314c4fbe7fcf9fc5f578c465226572548726a0a1",
	"ring-shards2": "f34f2e1a6b4c9516634767c0314c4fbe7fcf9fc5f578c465226572548726a0a1",
}
