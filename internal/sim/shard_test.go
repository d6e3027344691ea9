package sim

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// multiRack builds `racks` (3,2)-torus racks bridged in a ring — the
// smallest fabric with a non-trivial rack partition and multiple boundary
// links per shard pair.
func multiRack(t testing.TB, racks int) *topology.Graph {
	return rackRing(t, racks, 3, 2, [2]topology.NodeID{0, 4}, [2]topology.NodeID{5, 1})
}

// rackRing joins `racks` k-ary dims-cubes in a ring, each to its successor
// by two cables: node a[0] to the successor's a[1], and b[0] to its b[1].
func rackRing(t testing.TB, racks, k, dims int, a, b [2]topology.NodeID) *topology.Graph {
	t.Helper()
	subs := make([]*topology.Graph, racks)
	for i := range subs {
		g, err := topology.NewTorus(k, dims)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = g
	}
	var bridges []topology.Bridge
	for i := 0; i < racks; i++ {
		j := (i + 1) % racks
		bridges = append(bridges,
			topology.Bridge{RackA: i, RackB: j, NodeA: a[0], NodeB: a[1]},
			topology.Bridge{RackA: i, RackB: j, NodeA: b[0], NodeB: b[1]},
		)
	}
	g, err := topology.ConnectRacks(subs, bridges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shardWorkload is the reference multi-rack configuration the sharded
// engine is validated against: randomised routing (per-node RNG streams),
// reliable transfer (acks crossing boundaries in both directions), and a
// mix of intra- and inter-rack flows.
func shardWorkload(t testing.TB, shards int) RunConfig {
	g := multiRack(t, 4)
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
			Count:        60,
			Seed:         7,
		}, 256<<10),
		MaxTime: 100 * simtime.Millisecond,
		Shards:  shards,
	}
}

// fanOutEveryPhase lowers the fan-out threshold for the test's duration so
// that every phase with two or more active shards runs on the helper
// goroutines: the oracle fabrics are too small to reach the default, and an
// oracle whose shards never run concurrently proves nothing under -race.
func fanOutEveryPhase(t *testing.T) {
	old := fanoutMinEvents
	fanoutMinEvents = 0
	t.Cleanup(func() { fanoutMinEvents = old })
}

// TestShardedByteIdentical is the sharded engine's differential oracle: the
// serial engine (Shards ≤ 1) and the sharded engine at several worker
// counts must produce byte-identical Results dumps. Each worker count cuts
// the 4-rack ring differently — halves at 2, racks 2+1+1 at 3, single racks
// at 4 and 8 — and every cut must reproduce the one-shard run.
func TestShardedByteIdentical(t *testing.T) {
	fanOutEveryPhase(t)
	serial := Run(shardWorkload(t, 1))
	if serial.Completed == 0 {
		t.Fatal("workload completed no flows; the comparison would be vacuous")
	}
	want := dumpResults(serial)
	for _, workers := range []int{2, 3, 4, 8} {
		res := Run(shardWorkload(t, workers))
		if len(res.ShardStats) != min(workers, 4) {
			t.Fatalf("workers=%d: ShardStats has %d entries, want %d (one per worker, at most one per rack)",
				workers, len(res.ShardStats), min(workers, 4))
		}
		handoffs := uint64(0)
		for _, st := range res.ShardStats {
			handoffs += st.Handoffs
		}
		if handoffs == 0 {
			t.Fatalf("workers=%d: no boundary handoffs; the workload never crossed a shard", workers)
		}
		res.ShardStats = nil // wall-clock fields are legitimately nondeterministic
		got := dumpResults(res)
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d diverged from serial (first differing line %d)\n--- serial ---\n%s\n--- sharded ---\n%s",
				workers, firstDiffLine(want, got), want, got)
		}
	}
}

func firstDiffLine(a, b []byte) int {
	line := 1
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			break
		}
		if a[i] == '\n' {
			line++
		}
	}
	return line
}

// TestShardedFaultsByteIdentical drives a fault schedule that crosses shard
// boundaries — a bridge-cable failure plus repair, a node crash next to a
// bridge, and a lossy boundary cable — and requires the sharded engine to
// match the serial one exactly: replicated fault injection, the degraded-
// fabric reroute and §3.2 re-announce broadcasts must all stay in lockstep
// across shards. Which faults cross a boundary depends on the worker count
// (at 2 the rack-0/1 cable lies inside a shard), so each count must have at
// least one that does.
func TestShardedFaultsByteIdentical(t *testing.T) {
	fanOutEveryPhase(t)
	sched := faults.Schedule{Events: []faults.Event{
		// Rack 0's node 0 bridges to rack 1's node 4 (vertex 13): kill the
		// boundary cable itself, then repair it.
		{At: 2 * time.Millisecond, Kind: faults.LinkDown, A: 0, B: 13, Detect: 200 * time.Microsecond},
		{At: 6 * time.Millisecond, Kind: faults.LinkRepair, A: 0, B: 13, Detect: 200 * time.Microsecond},
		// Crash a bridge endpoint in rack 2 (vertex 23 = rack 2, node 5).
		{At: 4 * time.Millisecond, Kind: faults.NodeDown, Node: 23, Detect: 300 * time.Microsecond},
		// Lossy boundary cable: rack 1 node 5 (vertex 14) to rack 2 node 1
		// (vertex 19) — drops roll per-link RNG streams on the owner shard.
		{At: 1 * time.Millisecond, Kind: faults.LinkDrop, A: 14, B: 19, DropProb: 0.2},
	}}
	mk := func(shards int) RunConfig {
		cfg := shardWorkload(t, shards)
		if err := sched.Validate(cfg.Graph); err != nil {
			t.Fatal(err)
		}
		cfg.Faults = sched
		return cfg
	}
	serial := Run(mk(1))
	if serial.FailureReroutes == 0 {
		t.Fatal("fault schedule never triggered a reroute")
	}
	want := dumpResults(serial)
	for _, workers := range []int{2, 3, 4, 8} {
		cfg := mk(workers)
		racks, err := topology.NewPartition(cfg.Graph)
		if err != nil {
			t.Fatal(err)
		}
		part, err := racks.Grouped(cfg.Graph, workers)
		if err != nil {
			t.Fatal(err)
		}
		crossing := 0
		for _, ev := range sched.Events {
			if ev.Kind != faults.NodeDown && part.ShardOf(ev.A) != part.ShardOf(ev.B) {
				crossing++
			}
		}
		if crossing == 0 {
			t.Fatalf("workers=%d: no scheduled fault sits on a boundary link", workers)
		}
		res := Run(cfg)
		res.ShardStats = nil
		got := dumpResults(res)
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d diverged from serial under faults (first differing line %d)\n--- serial ---\n%s\n--- sharded ---\n%s",
				workers, firstDiffLine(want, got), want, got)
		}
	}
}

// TestShardedRejectsUnshardableConfigs pins the scope gate: the sharded
// engine refuses transports whose semantics cannot be partitioned, and
// fabrics without a rack structure.
func TestShardedRejectsUnshardableConfigs(t *testing.T) {
	expectPanic := func(name string, cfg RunConfig) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Run did not panic", name)
			}
		}()
		Run(cfg)
	}

	cfg := shardWorkload(t, 2)
	cfg.Transport = TransportTCP
	expectPanic("tcp", cfg)

	single := shardWorkload(t, 2)
	g, err := topology.NewTorus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	single.Graph = g
	single.Arrivals = trafficgen.FixedSize(trafficgen.PoissonConfig{
		Nodes: g.Nodes(), MeanInterval: 200 * simtime.Microsecond, Count: 10, Seed: 7,
	}, 64<<10)
	expectPanic("single-rack", single)
}

// TestOrderHandoffsMatchesStableSort holds the drain's allocation-free
// ordering against the reflective stable sort it replaced, kept here as the
// reference: random per-destination gathers from 3–6 source shards, each
// source's run in clock order, with fire times, emission times and links
// drawn from a handful of values so exact (at, emit) and (at, emit, link)
// ties within and across sources are the common case. Handoffs tied on all
// three must keep gather order.
func TestOrderHandoffsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		sources := 3 + rng.Intn(4)
		var slots []handoff
		for s := 0; s < sources; s++ {
			emit := simtime.Time(0)
			for i, n := 0, rng.Intn(60); i < n; i++ {
				emit += simtime.Time(rng.Intn(3)) // nondecreasing: a source exports in clock order
				slots = append(slots, handoff{
					at:   emit + simtime.Time(1+rng.Intn(4))*100, // per-link delays differ: not sorted by at
					emit: emit,
					link: topology.LinkID(rng.Intn(3)),
					src:  topology.NodeID(s),
					seq:  uint32(i),
				})
			}
		}
		got := make([]*handoff, len(slots))
		for i := range slots {
			got[i] = &slots[i]
		}
		want := append([]*handoff(nil), got...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			if want[i].emit != want[j].emit {
				return want[i].emit < want[j].emit
			}
			return want[i].link < want[j].link
		})
		orderHandoffs(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%d handoffs from %d sources): position %d holds source %d #%d (at %d, emit %d, link %d), stable sort puts source %d #%d (at %d, emit %d, link %d) there",
					trial, len(slots), sources, i, got[i].src, got[i].seq, got[i].at, got[i].emit, got[i].link,
					want[i].src, want[i].seq, want[i].at, want[i].emit, want[i].link)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { orderHandoffs(nil) }); allocs != 0 {
		t.Fatalf("orderHandoffs allocates %v objects per call", allocs)
	}
}

// TestShardedAllocationsWithinTwiceSerial is ROADMAP item 2's allocation
// exit criterion as a gate: on BenchmarkShardedEventThroughput's fabric
// (8 racks of 4-ary 3-cubes in a ring) at a reduced flow count, the sharded
// engine may allocate at most twice the objects the serial engine does for
// the same inputs. Per-shard routing tables, FIBs and φ caches, or a drain
// that allocates per epoch, each break it by a wide margin.
func TestShardedAllocationsWithinTwiceSerial(t *testing.T) {
	g := rackRing(t, 8, 4, 3, [2]topology.NodeID{0, 7}, [2]topology.NodeID{11, 4})
	cfg := shardWorkload(t, 1)
	cfg.Graph = g
	cfg.Arrivals = trafficgen.FixedSize(trafficgen.PoissonConfig{
		Nodes: g.Nodes(), MeanInterval: 50 * simtime.Microsecond, Count: 60, Seed: 5,
	}, 128<<10)
	cfg.MaxTime = 50 * simtime.Millisecond
	mallocs := func(shards int) uint64 {
		run := cfg
		run.Shards = shards
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if res := Run(run); res.Completed != len(run.Arrivals) {
			t.Fatalf("shards=%d: %d of %d flows completed", shards, res.Completed, len(run.Arrivals))
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	serial, sharded := mallocs(1), mallocs(2)
	t.Logf("serial %d objects, sharded %d (%.2fx)", serial, sharded, float64(sharded)/float64(serial))
	if sharded > 2*serial {
		t.Fatalf("sharded run allocated %d objects, more than twice the serial run's %d", sharded, serial)
	}
}

// arrivalsPerSource is the per-source flow count Run hands the shard-set
// builder.
func arrivalsPerSource(cfg RunConfig) []int {
	perSrc := make([]int, cfg.Graph.Nodes())
	for _, a := range cfg.Arrivals {
		perSrc[a.Src]++
	}
	return perSrc
}

// TestOneShardSeam pins what a shard set of one is. On a fabric that could
// be partitioned, Shards 0 and 1 both run one shard owning everything — same
// bytes, no ShardStats — with no helper goroutine (a helper count of −1
// would hang stop for ever, so fanout.start panics on it) and no shard
// context on the network, so the tick
// stays per node. Nothing bounds the one shard's window but the completion-check
// slice: a run that is busy to its time limit makes exactly 64 Engine.Run
// calls, one that completes early fewer, whatever the transport.
func TestOneShardSeam(t *testing.T) {
	done := make(chan *Results, 1)
	go func() { done <- Run(shardWorkload(t, 0)) }()
	var zero *Results
	select {
	case zero = <-done:
	case <-time.After(time.Minute):
		t.Fatal("Run with Shards = 0 did not return")
	}
	one := Run(shardWorkload(t, 1))
	if zero.ShardStats != nil || one.ShardStats != nil {
		t.Fatalf("one-shard runs report ShardStats: Shards=0 %v, Shards=1 %v", zero.ShardStats, one.ShardStats)
	}
	if a, b := dumpResults(zero), dumpResults(one); !bytes.Equal(a, b) {
		t.Fatalf("Shards=0 and Shards=1 diverged (first differing line %d)", firstDiffLine(a, b))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("fanout.start accepted a negative helper count")
			}
		}()
		new(fanout).start(-1, func(int) {})
	}()

	g := torus(t, 4, 2)
	busy := RunConfig{Graph: g, Transport: TransportTCP, MaxTime: 3 * simtime.Millisecond,
		Arrivals: trafficgen.FixedSize(trafficgen.PoissonConfig{
			Nodes: g.Nodes(), MeanInterval: 20 * simtime.Microsecond, Count: 40, Seed: 7,
		}, 1<<20)}
	early := busy
	early.MaxTime = simtime.Second
	rack := shardWorkload(t, 0)
	for _, c := range []struct {
		name   string
		cfg    RunConfig
		epochs func(n uint64) bool
	}{
		{"tcp to the time limit", busy, func(n uint64) bool { return n == 64 }},
		{"tcp completing early", early, func(n uint64) bool { return n >= 1 && n < 64 }},
		{"r2c2 on a rack fabric", rack, func(n uint64) bool { return n >= 1 && n < 64 }},
	} {
		sr := newShardedRun(c.cfg, arrivalsPerSource(c.cfg))
		end := sr.run()
		sr.workers.stop()
		st := sr.shards[0]
		if len(sr.shards) != 1 || sr.workers.helpers != 0 || st.net.sh != nil || sr.part != nil {
			t.Fatalf("%s: %d shards, %d helpers, net.sh %v, partition %v; want one bare shard",
				c.name, len(sr.shards), sr.workers.helpers, st.net.sh, sr.part)
		}
		slice := sr.cfg.MaxTime / 64
		if end%slice != 0 || !c.epochs(sr.epochs) || st.activeEpochs != sr.epochs {
			t.Errorf("%s: stopped at %v (slice %v) after %d epochs, %d of them active", c.name, end, slice, sr.epochs, st.activeEpochs)
		}
		if c.cfg.Transport == TransportTCP && (st.eng.tcp == nil || st.r2 != nil) {
			t.Errorf("%s: transport not attached as TCP", c.name)
		}
	}
}
