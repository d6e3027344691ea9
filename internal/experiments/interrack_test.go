package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// stripHandoffs removes the handoffs column from a mix-table CSV: it is 0
// for serial runs by definition (there are no shards to cross), so the
// serial-vs-sharded comparison excludes it.
func stripHandoffs(t *testing.T, csv string) string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimRight(csv, "\n"), "\n") {
		cells := strings.Split(line, ",")
		if len(cells) != 8 || (out == nil && cells[5] != "handoffs") {
			t.Fatalf("unexpected mix-table schema: %q", line)
		}
		out = append(out, strings.Join(append(cells[:5:5], cells[6:]...), ","))
	}
	return strings.Join(out, "\n") + "\n"
}

// TestInterRackMixTableShardInvariant pins the experiment's determinism
// contract: the simulation columns of the mix table are byte-identical
// between the serial engine and the sharded engine, the full table is
// byte-identical across worker counts, and a fully inter-rack mix moves
// strictly more boundary traffic than a fully intra-rack one.
func TestInterRackMixTableShardInvariant(t *testing.T) {
	cfg := DefaultInterRack()
	cfg.Flows = 60
	cfg.Mixes = []float64{0, 1}

	cfg.Shards = 1
	serial := InterRack(cfg)
	for _, run := range serial.Runs {
		if run.Results.Completed == 0 {
			t.Fatalf("mix %.2f completed no flows; the sweep is vacuous", run.Mix)
		}
	}
	want := stripHandoffs(t, serial.MixTable().CSV())

	var full, counters []string
	for _, shards := range []int{2, 8} {
		cfg.Shards = shards
		res := InterRack(cfg)
		got := res.MixTable().CSV()
		full = append(full, got)
		if stripped := stripHandoffs(t, got); stripped != want {
			t.Fatalf("shards=%d mix table diverged from serial\n--- serial ---\n%s--- sharded ---\n%s", shards, want, stripped)
		}
		if h0, h1 := res.Runs[0].Handoffs, res.Runs[1].Handoffs; h1 <= h0 {
			t.Fatalf("shards=%d: inter-rack mix moved %d handoffs, intra-rack %d; want strictly more", shards, h1, h0)
		}
		util := res.ShardUtilTable()
		if want := len(cfg.Mixes) * cfg.Racks; len(util.Rows) != want {
			t.Fatalf("shards=%d: utilisation table has %d rows, want %d", shards, len(util.Rows), want)
		}
		var det strings.Builder // mix … active_epochs: everything left of the wall-clock columns
		for _, row := range util.Rows {
			det.WriteString(strings.Join(row[:7], ",") + "\n")
		}
		counters = append(counters, det.String())
	}
	if counters[0] != counters[1] {
		t.Fatalf("per-shard counters (nodes, events, handoffs, epochs, active_epochs) differ between worker counts\n--- shards=2 ---\n%s--- shards=8 ---\n%s", counters[0], counters[1])
	}
	if full[0] != full[1] {
		t.Fatalf("mix table differs between worker counts\n--- shards=2 ---\n%s--- shards=8 ---\n%s", full[0], full[1])
	}
}

// TestInterRackArrivalsMixOnlyRewritesPairs: the offered load (arrival
// times and sizes) is identical at every mix, and the rewritten pairs
// respect the mix's rack placement.
func TestInterRackArrivalsMixOnlyRewritesPairs(t *testing.T) {
	cfg := DefaultInterRack()
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
	cfg := DefaultInterRack()
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
