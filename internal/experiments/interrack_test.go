package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// ringConfig is the registry's small inter-rack sweep.
func ringConfig(t *testing.T) Config {
	t.Helper()
	f, err := Lookup("interrack")
	if err != nil {
		t.Fatal(err)
	}
	return f.Small
}

// TestInterRackFabricAllocation bounds what building the 10,240-node CI
// sweep's fabric and reading its diameter allocate, so that fabric state
// keeps growing with the links, not with the vertex pairs: 64 MB, where an
// all-pairs hop matrix alone would take 419 MB. Bytes allocated are
// deterministic, so the gate times nothing.
func TestInterRackFabricAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := Config{K: 16, Racks: 40, Bridges: 2}.Fabric()
	d := g.Diameter()
	runtime.ReadMemStats(&after)
	if g.Nodes() != 10240 || d <= 0 {
		t.Fatalf("fabric of %d nodes, diameter %d", g.Nodes(), d)
	}
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if alloc > 64 {
		t.Fatalf("building the fabric and its diameter allocated %.1f MB, bound 64 MB", alloc)
	}
	t.Logf("%d nodes, %d links, diameter %d: %.1f MB allocated", g.Nodes(), g.NumLinks(), d, alloc)
}

// TestInterRackMixTableShardInvariant pins the experiment's determinism
// contract: the mix table is byte-identical between the serial engine and
// the sharded engine at every worker count, the per-shard counters are
// identical between two runs at the same worker count, and a fully
// inter-rack mix moves strictly more boundary traffic than a fully
// intra-rack one.
func TestInterRackMixTableShardInvariant(t *testing.T) {
	cfg := ringConfig(t)
	cfg.Flows = 60
	cfg.Mixes = []float64{0, 1}

	cfg.Shards = 1
	serial := InterRack(cfg)
	for _, run := range serial.Runs {
		if run.Results.Completed == 0 {
			t.Fatalf("mix %.2f completed no flows; the sweep is vacuous", run.Mix)
		}
	}
	want := serial.MixTable().CSV()

	// counters renders everything left of the utilisation table's
	// wall-clock columns: mix, shard, nodes, events, handoffs, epochs,
	// active_epochs.
	counters := func(res *InterRackResult) string {
		var det strings.Builder
		for _, row := range res.ShardUtilTable().Rows {
			det.WriteString(strings.Join(row[:7], ",") + "\n")
		}
		return det.String()
	}
	for _, shards := range []int{2, 3, 8} {
		cfg.Shards = shards
		res := InterRack(cfg)
		if got := res.MixTable().CSV(); got != want {
			t.Fatalf("shards=%d mix table diverged from serial\n--- serial ---\n%s--- sharded ---\n%s", shards, want, got)
		}
		if h0, h1 := handoffs(res.Runs[0]), handoffs(res.Runs[1]); h1 <= h0 {
			t.Fatalf("shards=%d: inter-rack mix moved %d handoffs, intra-rack %d; want strictly more", shards, h1, h0)
		}
		util := res.ShardUtilTable()
		if want := len(cfg.Mixes) * min(shards, cfg.Racks); len(util.Rows) != want {
			t.Fatalf("shards=%d: utilisation table has %d rows, want %d", shards, len(util.Rows), want)
		}
		if a, b := counters(res), counters(InterRack(cfg)); a != b {
			t.Fatalf("shards=%d: per-shard counters (nodes, events, handoffs, epochs, active_epochs) differ between two runs\n--- first ---\n%s--- second ---\n%s", shards, a, b)
		}
	}
}

// handoffs is a run's cross-shard handoffs over every shard.
func handoffs(run InterRackRun) (n uint64) {
	for _, st := range run.Results.ShardStats {
		n += st.Handoffs
	}
	return n
}

// TestInterRackArrivalsMixOnlyRewritesPairs: the offered load (arrival
// times and sizes) is identical at every mix, and the rewritten pairs
// respect the mix's rack placement.
func TestInterRackArrivalsMixOnlyRewritesPairs(t *testing.T) {
	cfg := ringConfig(t)
	g := cfg.Fabric()
	per := g.Nodes() / cfg.Racks
	intra := cfg.arrivals(g, 0)
	inter := cfg.arrivals(g, 1)
	if len(intra) != cfg.Flows || len(inter) != cfg.Flows {
		t.Fatalf("want %d arrivals, got %d and %d", cfg.Flows, len(intra), len(inter))
	}
	for i := range intra {
		a, b := intra[i], inter[i]
		if a.At != b.At || a.SizeBytes != b.SizeBytes || a.Src != b.Src {
			t.Fatalf("arrival %d: times/sizes/sources must not depend on the mix: %+v vs %+v", i, a, b)
		}
		if a.Src == a.Dst || b.Src == b.Dst {
			t.Fatalf("arrival %d: self-flow", i)
		}
		if int(a.Src)/per != int(a.Dst)/per {
			t.Fatalf("arrival %d: mix 0 produced a cross-rack pair %v->%v", i, a.Src, a.Dst)
		}
		if int(b.Src)/per == int(b.Dst)/per {
			t.Fatalf("arrival %d: mix 1 produced an intra-rack pair %v->%v", i, b.Src, b.Dst)
		}
	}
}

// TestInterRackTableShapes keeps the CSV schema stable for the CI artifact.
func TestInterRackTableShapes(t *testing.T) {
	cfg := ringConfig(t)
	cfg.Flows = 20
	cfg.Mixes = []float64{0.5}
	cfg.Shards = 2
	res := InterRack(cfg)
	mix := res.MixTable()
	if len(mix.Rows) != 1 || len(mix.Rows[0]) != len(mix.Header) {
		t.Fatalf("mix table shape off: %+v", mix)
	}
	util := res.ShardUtilTable()
	for _, row := range util.Rows {
		if len(row) != len(util.Header) {
			t.Fatalf("util row width %d != header %d", len(row), len(util.Header))
		}
		if _, err := strconv.Atoi(row[1]); err != nil {
			t.Fatalf("shard column not an integer: %v", row)
		}
	}
}
