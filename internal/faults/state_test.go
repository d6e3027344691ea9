package faults

import (
	"math"
	"slices"
	"testing"

	"r2c2/internal/topology"
)

func down(a, b topology.NodeID) Event { return Event{Kind: LinkDown, A: a, B: b} }
func up(a, b topology.NodeID) Event   { return Event{Kind: LinkRepair, A: a, B: b} }
func crash(v topology.NodeID) Event   { return Event{Kind: NodeDown, Node: v} }

// stateSnapshot copies everything a change may touch.
type stateSnapshot struct {
	links, dead       []bool
	sub               *topology.Graph
	linkMap           []topology.LinkID
	injected, covered uint64
}

func snap(s *State) stateSnapshot {
	return stateSnapshot{slices.Clone(s.links), slices.Clone(s.dead), s.sub, s.linkMap, s.injected, s.covered}
}

func (a stateSnapshot) equal(b stateSnapshot) bool {
	return slices.Equal(a.links, b.links) && slices.Equal(a.dead, b.dead) && a.sub == b.sub &&
		slices.Equal(a.linkMap, b.linkMap) && a.injected == b.injected && a.covered == b.covered
}

// An event Apply refuses — one that would partition the survivors, or that
// names no cable or node, or breaks a rule — leaves the failure state
// exactly as it was: links, dead nodes, the validated graph and the epochs.
func TestStateRollback(t *testing.T) {
	st := NewState(torus(t, 4, 2)) // node 0's cables go to 1, 3, 4 and 12
	for _, e := range []Event{down(0, 1), down(0, 3), down(0, 4), crash(5)} {
		if _, err := st.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	before := snap(st)
	for name, e := range map[string]Event{
		"crash cutting 0 off":  crash(12),
		"cable cutting 0 off":  down(0, 12),
		"cable down already":   down(1, 0),
		"no cable":             down(0, 2),
		"endpoint too high":    down(999, 0),
		"endpoint negative":    up(-1, 0),
		"node too high":        crash(999),
		"node crashed twice":   crash(5),
		"cable healthy":        up(2, 3),
		"dead node's cable up": up(5, 6),
		"dead node's cable":    {Kind: LinkDrop, A: 5, B: 6, DropProb: 0.5},
		"probability above 1":  {Kind: LinkDrop, A: 2, B: 3, DropProb: 1.5},
		"probability NaN":      {Kind: LinkDrop, A: 2, B: 3, DropProb: math.NaN()},
		"unknown kind":         {Kind: LinkDrop + 1, A: 2, B: 3},
	} {
		if lids, err := st.Apply(e); err == nil || lids != nil {
			t.Errorf("%s: links %v, error %v; want only an error", name, lids, err)
		}
		if !snap(st).equal(before) {
			t.Fatalf("%s: state moved from %+v to %+v", name, before, snap(st))
		}
	}
	// A drop probability is local to its cable: the state keeps nothing of it.
	if lids, err := st.Apply(Event{Kind: LinkDrop, A: 2, B: 3, DropProb: 1}); err != nil || len(lids) != 2 || !snap(st).equal(before) {
		t.Fatalf("drop on 2-3: links %v, error %v; want its 2 links and no state change", lids, err)
	}
	// Once 0-1 is back, the crash that was refused leaves 0 a neighbour.
	if _, err := st.Apply(up(0, 1)); err != nil {
		t.Fatal(err)
	}
	if lids, err := st.Apply(crash(12)); err != nil || len(lids) != 8 {
		t.Fatalf("crash of node 12: links %v, error %v; want its 8 healthy links", lids, err)
	}
}

// Accepted failures accumulate: each one's failed set contains the last,
// the validated graph leaves every failed link out, and a repair gives back
// exactly the cable's links.
func TestStateUnionMonotone(t *testing.T) {
	st := NewState(torus(t, 4, 2))
	prev := slices.Clone(st.links)
	for _, c := range [][2]topology.NodeID{{0, 1}, {5, 6}, {10, 14}, {0, 4}} {
		lids, err := st.Apply(down(c[0], c[1]))
		if err != nil || len(lids) != 2 {
			t.Fatalf("fail %v: links %v, error %v", c, lids, err)
		}
		for lid, failed := range prev {
			if failed && !st.links[lid] {
				t.Fatalf("fail %v healed link %d", c, lid)
			}
		}
		for _, phys := range st.linkMap {
			if st.links[phys] {
				t.Fatalf("fail %v: the surviving graph keeps failed link %d", c, phys)
			}
		}
		if got, want := len(st.linkMap), st.g.NumLinks()-countTrue(st.links); got != want {
			t.Fatalf("fail %v: %d surviving links, want %d", c, got, want)
		}
		prev = slices.Clone(st.links)
	}
	if lids, err := st.Apply(up(5, 6)); err != nil || len(lids) != 2 || countTrue(st.links) != 6 {
		t.Fatalf("repair 5-6: links %v, error %v, %d failed; want 2 back and 6 failed", lids, err, countTrue(st.links))
	}
}

func countTrue(b []bool) (n int) {
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// Due is true once per batch of injections, whatever the batch size; a
// refused event and a drop probability change are no injection.
func TestStateDueOncePerBatch(t *testing.T) {
	st := NewState(torus(t, 4, 2))
	if st.Due() {
		t.Fatal("due before any injection")
	}
	st.Apply(down(0, 1))
	st.Apply(down(2, 3))
	if !st.Due() || st.Due() {
		t.Fatal("two injections: want one due")
	}
	st.Apply(down(0, 1)) // refused
	st.Apply(Event{Kind: LinkDrop, A: 4, B: 5, DropProb: 0.5})
	if st.Due() {
		t.Fatal("due after a refused event or a drop")
	}
	st.Apply(up(0, 1))
	if !st.Due() || st.Due() {
		t.Fatal("a repair: want one due")
	}
}
