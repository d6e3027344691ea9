package sim

import (
	"crypto/sha256"
	"encoding/hex"
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
