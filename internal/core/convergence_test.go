package core

import (
	"math/rand"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// Eventual view convergence: any two nodes that receive the same SET of
// broadcasts — in arbitrary per-node order, with arbitrary duplication of
// start and finish events — end with identical views and hashes, provided
// per-flow event order (start before finish) is respected. This is the
// property that makes "all nodes compute the same rates" sound despite
// independent broadcast trees.
func TestViewConvergenceUnderReordering(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		// Build a random flow history: starts, optional updates, finishes.
		type ev struct {
			b    *wire.Broadcast
			flow wire.FlowID
			kind wire.EventKind
		}
		var perFlow [][]ev
		nFlows := 1 + rng.Intn(12)
		for i := 0; i < nFlows; i++ {
			info := FlowInfo{
				ID:         wire.MakeFlowID(uint16(rng.Intn(16)), uint16(trial*100+i)),
				Src:        topology.NodeID(rng.Intn(16)),
				Dst:        topology.NodeID(rng.Intn(16)),
				Weight:     uint8(1 + rng.Intn(3)),
				DemandKbps: UnlimitedDemand,
				Protocol:   routing.RPS,
			}
			seq := []ev{{info.StartBroadcast(0), info.ID, wire.EventFlowStart}}
			if rng.Intn(2) == 0 {
				up := info
				up.DemandKbps = uint32(rng.Intn(1e6))
				seq = append(seq, ev{up.Broadcast(wire.EventDemandUpdate, 0), info.ID, wire.EventDemandUpdate})
			}
			if rng.Intn(3) > 0 { // some flows finish, some stay live
				seq = append(seq, ev{info.FinishBroadcast(0), info.ID, wire.EventFlowFinish})
			}
			perFlow = append(perFlow, seq)
		}
		// Two nodes receive interleavings that preserve per-flow order but
		// interleave flows differently and duplicate some events.
		deliver := func(v *View, seed int64) {
			r := rand.New(rand.NewSource(seed))
			idx := make([]int, len(perFlow))
			for {
				remaining := 0
				for f := range perFlow {
					remaining += len(perFlow[f]) - idx[f]
				}
				if remaining == 0 {
					return
				}
				f := r.Intn(len(perFlow))
				if idx[f] >= len(perFlow[f]) {
					continue
				}
				e := perFlow[f][idx[f]]
				if err := v.Apply(e.b); err != nil {
					t.Fatal(err)
				}
				if r.Intn(4) == 0 { // duplicate delivery (retransmission)
					_ = v.Apply(e.b)
				}
				idx[f]++
			}
		}
		a, b := NewView(), NewView()
		deliver(a, int64(trial))
		deliver(b, int64(trial)+7777)
		if a.Hash() != b.Hash() {
			t.Fatalf("trial %d: views diverged: %d vs %d flows", trial, a.Len(), b.Len())
		}
		fa, fb := a.Flows(), b.Flows()
		if len(fa) != len(fb) {
			t.Fatalf("trial %d: %d vs %d flows", trial, len(fa), len(fb))
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("trial %d: flow %d differs: %+v vs %+v", trial, i, fa[i], fb[i])
			}
		}
	}
}
