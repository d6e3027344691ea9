package core

import (
	"math/rand"
	"testing"

	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// TestDemandSummaryMergeMatchesView builds a random flow population, splits
// it by source node across four per-shard summaries, tree-reduces them, and
// requires the reduced summary to be indistinguishable from a converged
// View of the whole population: identical digest, identical sorted flow
// list, and bit-identical allocations from ComputeSummary vs Compute.
func TestDemandSummaryMergeMatchesView(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	view := NewView()
	shards := make([]DemandSummary, 4)
	var perSrc [16][]FlowInfo
	for i := 0; i < 60; i++ {
		src := topology.NodeID(rng.Intn(16))
		dst := topology.NodeID(rng.Intn(16))
		f := flowInfo(src, dst, uint16(i+1))
		if rng.Intn(2) == 0 {
			f.DemandKbps = uint32(rng.Intn(1_000_000) + 1)
		}
		view.AddFlow(f)
		perSrc[src] = append(perSrc[src], f)
	}
	// Each shard owns four consecutive source nodes; walking nodes ascending
	// with per-node flows in arrival (seq) order is the sorted-ID order
	// DemandSummary.Add demands, because flow IDs embed the source node.
	for src, flows := range perSrc {
		for _, f := range flows {
			shards[src/4].Add(f)
		}
	}
	global := &shards[0]
	for s := 3; s >= 1; s-- { // reverse BFS of a path-shaped tree
		global.Merge(&shards[s])
	}
	if global.Hash != view.Hash() {
		t.Fatalf("reduced digest %#x != view hash %#x", global.Hash, view.Hash())
	}
	want := view.Flows()
	if len(global.Flows) != len(want) {
		t.Fatalf("reduced summary has %d flows, view %d", len(global.Flows), len(want))
	}
	for i := range want {
		if global.Flows[i] != want[i] {
			t.Fatalf("flow %d: summary %+v != view %+v", i, global.Flows[i], want[i])
		}
	}

	rcView, rcSum := newComputer(t), newComputer(t)
	av, as := rcView.Compute(view), rcSum.ComputeSummary(global)
	if av.ViewHash != as.ViewHash {
		t.Fatalf("allocation hashes differ: %#x vs %#x", av.ViewHash, as.ViewHash)
	}
	if len(av.Rates) != len(as.Rates) {
		t.Fatalf("allocation sizes differ: %d vs %d", len(av.Rates), len(as.Rates))
	}
	for i, id := range av.IDs {
		if as.IDs[i] != id || as.Rates[i] != av.Rates[i] {
			t.Fatalf("flow %v: summary rate %v != view rate %v (must be bit-identical)", id, as.Rates[i], av.Rates[i])
		}
	}

	// The computer retains nothing of the caller's summary: mutating it
	// afterwards cannot disturb the cached answer.
	global.Reset()
	global.Add(flowInfo(0, 1, 999))
	again := rcSum.ComputeSummary(&DemandSummary{Flows: want, Hash: view.Hash()})
	if again.Rate(want[0].ID) != av.Rate(want[0].ID) {
		t.Fatal("summary mutation leaked into the computer's cache")
	}
}

// TestDemandSummaryInvariants pins the failure modes Merge and Add refuse:
// out-of-order adds and overlapping shard flow sets are aggregation bugs,
// not recoverable inputs.
func TestDemandSummaryInvariants(t *testing.T) {
	var s DemandSummary
	s.Add(flowInfo(2, 3, 1))
	mustPanic(t, "out-of-order Add", func() { s.Add(flowInfo(1, 3, 1)) })
	var a, b DemandSummary
	a.Add(flowInfo(4, 5, 1))
	b.Add(flowInfo(4, 5, 1))
	mustPanic(t, "overlapping Merge", func() { a.Merge(&b) })

	// Merge with an empty summary is a no-op; merging into empty adopts.
	var empty, dst DemandSummary
	dst.Add(flowInfo(6, 7, 2))
	h := dst.Hash
	dst.Merge(&empty)
	if len(dst.Flows) != 1 || dst.Hash != h {
		t.Fatal("empty merge changed the summary")
	}
	empty.Merge(&dst)
	if len(empty.Flows) != 1 || empty.Hash != h {
		t.Fatal("merge into empty did not adopt the flows")
	}
	if empty.Flows[0].ID != wire.MakeFlowID(6, 2) {
		t.Fatalf("adopted flow %v", empty.Flows[0].ID)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
