package sim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/trafficgen"
)

// controlPlaneWorkload parameterises shardWorkload by rack count so the
// control-plane oracle can sweep partition shapes (2 racks joined by four
// cables; a ring of 4, whose shards each border two others).
func controlPlaneWorkload(t testing.TB, racks, shards int) RunConfig {
	g := multiRack(t, racks)
	return RunConfig{
		Graph:     g,
		Net:       NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond},
		Transport: TransportR2C2,
		R2C2: R2C2Config{
			Headroom: 0.05, Protocol: routing.RPS,
			Recompute: 100 * simtime.Microsecond,
			Reliable:  true, RTO: 300 * simtime.Microsecond,
			Seed: 11,
		},
		Arrivals: trafficgen.FixedSize(trafficgen.PoissonConfig{
			Nodes:        g.Nodes(),
			MeanInterval: 200 * simtime.Microsecond,
			Count:        40,
			Seed:         7,
		}, 256<<10),
		MaxTime: 80 * simtime.Millisecond,
		Shards:  shards,
	}
}

// controlPlaneFaults returns a boundary-crossing fault schedule for the
// given rack count. The 4-rack schedule fails BOTH bridge cables between
// racks 0 and 1, so the ring keeps the fabric connected only through racks 3
// and 2, and every shard's reroute has to agree on a fabric whose
// degradation another shard's links caused. One cable is restored while the
// other is still down, fails again and is restored again, so the run crosses
// five reroute generations — the fourth the same failure set as the second,
// the fifth as the third — each built once in the shards' shared fabric
// cache and taken by all four shards, in whatever order the workers reach
// it. (The last repair is the event that used to make serial and sharded
// runs differ in the Reorder sample, through an exact-picosecond arrival tie
// between shards that only the link key resolves the serial way.)
func controlPlaneFaults(racks int) faults.Schedule {
	if racks == 4 {
		return faults.Schedule{Events: []faults.Event{
			{At: 2 * time.Millisecond, Kind: faults.LinkDown, A: 0, B: 13, Detect: 200 * time.Microsecond},
			{At: 3 * time.Millisecond, Kind: faults.LinkDown, A: 5, B: 10, Detect: 200 * time.Microsecond},
			{At: 4 * time.Millisecond, Kind: faults.LinkRepair, A: 0, B: 13, Detect: 200 * time.Microsecond},
			{At: 5 * time.Millisecond, Kind: faults.LinkDown, A: 0, B: 13, Detect: 200 * time.Microsecond},
			{At: 7 * time.Millisecond, Kind: faults.LinkRepair, A: 0, B: 13, Detect: 200 * time.Microsecond},
		}}
	}
	// 2 racks: four bridge cables join them; failing one leaves the racks
	// joined while still rerouting mid-run.
	return faults.Schedule{Events: []faults.Event{
		{At: 2 * time.Millisecond, Kind: faults.LinkDown, A: 0, B: 13, Detect: 200 * time.Microsecond},
		{At: 8 * time.Millisecond, Kind: faults.LinkRepair, A: 0, B: 13, Detect: 200 * time.Microsecond},
	}}
}

// TestShardedControlPlaneOracle is the sharded control plane's differential
// oracle: for each input and fault schedule, the rack-partitioned run must
// produce Results byte-identical to one shard's at every worker count. Each
// shard runs the recomputation tick over its own nodes on its own rate
// computer, which sees a different sequence of views than one shard's does,
// so any dependence of a rate on the computer's history, any drift in the
// tick's sequencing, or a miscount of the Recomputations union shows up as
// a byte diff here. The third input's lookahead window is wider than ρ, so
// an epoch holds several ticks and the union must be taken tick by tick,
// not epoch by epoch. Shards ≤ 1 selects one shard itself, so the sweep
// starts at two workers.
func TestShardedControlPlaneOracle(t *testing.T) {
	fanOutEveryPhase(t)
	inputs := []struct {
		name  string
		racks int
		wide  bool // 50 µs cables, ρ = 10 µs: several ticks per epoch
	}{
		{"racks=2", 2, false},
		{"racks=4", 4, false},
		{"racks=4/window>rho", 4, true},
	}
	for _, in := range inputs {
		for _, withFaults := range []bool{false, true} {
			name := fmt.Sprintf("%s/faults=%v", in.name, withFaults)
			t.Run(name, func(t *testing.T) {
				mk := func(shards int) RunConfig {
					cfg := controlPlaneWorkload(t, in.racks, shards)
					if in.wide {
						cfg.Net.PropDelay = 50 * simtime.Microsecond
						cfg.R2C2.Recompute = 10 * simtime.Microsecond
						cfg.MaxTime = 20 * simtime.Millisecond
					}
					if withFaults {
						sched := controlPlaneFaults(in.racks)
						if err := sched.Validate(cfg.Graph); err != nil {
							t.Fatal(err)
						}
						cfg.Faults = sched
					}
					return cfg
				}
				if cfg := mk(2); in.wide {
					if d := lookahead(cfg.Graph, cfg.Net); d <= cfg.R2C2.Recompute {
						t.Fatalf("lookahead %v is not wider than rho %v; the input lost its point", d, cfg.R2C2.Recompute)
					}
				}
				serial := Run(mk(1))
				if serial.Completed == 0 {
					t.Fatal("workload completed no flows; the comparison would be vacuous")
				}
				if withFaults && serial.FailureReroutes == 0 {
					t.Fatal("fault schedule never triggered a reroute")
				}
				want := dumpResults(serial)
				for _, workers := range []int{2, 4, 8} {
					res := Run(mk(workers))
					res.ShardStats = nil // wall-clock fields are legitimately nondeterministic
					got := dumpResults(res)
					if !bytes.Equal(want, got) {
						t.Fatalf("workers=%d sharded control plane diverged from serial (first differing line %d)\n--- serial ---\n%s\n--- sharded ---\n%s",
							workers, firstDiffLine(want, got), want, got)
					}
				}
			})
		}
	}
}
