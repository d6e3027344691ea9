package core

import (
	"slices"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/topology"
)

func newFaults(t *testing.T, k, dims int) (*Faults, Fabric) {
	t.Helper()
	g, err := topology.NewTorus(k, dims)
	if err != nil {
		t.Fatal(err)
	}
	intact := NewFabric(routing.NewTable(g), 2, 1)
	return NewFaults(intact), intact
}

// faultsSnapshot copies everything a change may touch.
type faultsSnapshot struct {
	links, dead       []bool
	sub               *topology.Graph
	linkMap           []topology.LinkID
	injected, covered uint64
}

func snap(fs *Faults) faultsSnapshot {
	return faultsSnapshot{slices.Clone(fs.links), slices.Clone(fs.dead), fs.sub, fs.linkMap, fs.injected, fs.covered}
}

func (a faultsSnapshot) equal(b faultsSnapshot) bool {
	return slices.Equal(a.links, b.links) && slices.Equal(a.dead, b.dead) && a.sub == b.sub &&
		slices.Equal(a.linkMap, b.linkMap) && a.injected == b.injected && a.covered == b.covered
}

// A change that would partition the survivors, or that names no cable or
// node, leaves the failure state exactly as it was: links, dead nodes, the
// validated graph and the epochs.
func TestFaultsRollback(t *testing.T) {
	fs, _ := newFaults(t, 4, 1) // the ring 0-1-2-3-0
	if _, err := fs.FailCable(0, 1); err != nil {
		t.Fatal(err)
	}
	before := snap(fs)
	for name, change := range map[string]func() ([]topology.LinkID, error){
		"crash cutting 0 off": func() ([]topology.LinkID, error) { return fs.FailNode(3) },
		"cable cutting 0 off": func() ([]topology.LinkID, error) { return fs.FailCable(0, 3) },
		"cable down already":  func() ([]topology.LinkID, error) { return fs.FailCable(1, 0) },
		"no cable":            func() ([]topology.LinkID, error) { return fs.FailCable(0, 2) },
		"endpoint too high":   func() ([]topology.LinkID, error) { return fs.FailCable(999, 0) },
		"endpoint negative":   func() ([]topology.LinkID, error) { return fs.RepairCable(-1, 0) },
		"node too high":       func() ([]topology.LinkID, error) { return fs.FailNode(999) },
		"cable healthy":       func() ([]topology.LinkID, error) { return fs.RepairCable(2, 3) },
	} {
		if lids, err := change(); err == nil || lids != nil {
			t.Errorf("%s: links %v, error %v; want only an error", name, lids, err)
		}
		if !snap(fs).equal(before) {
			t.Fatalf("%s: state moved from %+v to %+v", name, before, snap(fs))
		}
	}
	// After the rollbacks the ring takes a crash that leaves 0-3-2.
	if lids, err := fs.FailNode(1); err != nil || len(lids) != 2 {
		t.Fatalf("crash of node 1: links %v, error %v; want its 2 healthy links", lids, err)
	}
}

// Accepted failures accumulate: each one's failed set contains the last,
// the validated graph leaves every failed link out, and a repair gives back
// exactly the cable's links.
func TestFaultsUnionMonotone(t *testing.T) {
	fs, _ := newFaults(t, 4, 2)
	prev := slices.Clone(fs.links)
	for _, c := range [][2]topology.NodeID{{0, 1}, {5, 6}, {10, 14}, {0, 4}} {
		lids, err := fs.FailCable(c[0], c[1])
		if err != nil || len(lids) != 2 {
			t.Fatalf("fail %v: links %v, error %v", c, lids, err)
		}
		for lid, failed := range prev {
			if failed && !fs.links[lid] {
				t.Fatalf("fail %v healed link %d", c, lid)
			}
		}
		for _, phys := range fs.linkMap {
			if fs.links[phys] {
				t.Fatalf("fail %v: the surviving graph keeps failed link %d", c, phys)
			}
		}
		if got, want := len(fs.linkMap), fs.g.NumLinks()-countTrue(fs.links); got != want {
			t.Fatalf("fail %v: %d surviving links, want %d", c, got, want)
		}
		prev = slices.Clone(fs.links)
	}
	if lids, err := fs.RepairCable(5, 6); err != nil || len(lids) != 2 || countTrue(fs.links) != 6 {
		t.Fatalf("repair 5-6: links %v, error %v, %d failed; want 2 back and 6 failed", lids, err, countTrue(fs.links))
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

// Due is true once per batch of injections, whatever the batch size.
func TestFaultsDueOncePerBatch(t *testing.T) {
	fs, _ := newFaults(t, 4, 2)
	if fs.Due() {
		t.Fatal("due before any injection")
	}
	fs.FailCable(0, 1)
	fs.FailCable(2, 3)
	if !fs.Due() || fs.Due() {
		t.Fatal("two injections: want one due")
	}
	fs.FailCable(0, 1) // rejected: not an injection
	if fs.Due() {
		t.Fatal("due after a rejected change")
	}
	fs.RepairCable(0, 1)
	if !fs.Due() || fs.Due() {
		t.Fatal("a repair: want one due")
	}
}

// With nothing failed the fabric is the intact one, tables and all; a
// degraded one maps its links to physical ports and snapshots the dead.
func TestFaultsFabric(t *testing.T) {
	fs, intact := newFaults(t, 4, 2)
	if f := fs.Fabric(); f.Tab != intact.Tab || f.Fib != intact.Fib || f.LinkMap != nil {
		t.Fatal("no failure: want the intact fabric")
	}
	fs.FailCable(0, 1)
	fs.FailNode(9)
	f := fs.Fabric()
	if f.Tab == intact.Tab || f.LinkMap == nil || !f.Dead[9] {
		t.Fatal("failures: want a degraded fabric with node 9 dead")
	}
	fs.dead[9] = false // the snapshot does not follow the live state
	if !f.Dead[9] {
		t.Fatal("the fabric's dead nodes alias the live state")
	}
	fs.dead[9] = true
	path := []topology.LinkID{0, 1}
	f.PhysInPlace(path)
	if path[0] != f.LinkMap[0] || path[1] != f.LinkMap[1] {
		t.Fatalf("translated path %v, want %v", path, f.LinkMap[:2])
	}
	fs.RepairCable(0, 1)
	if g := fs.Fabric(); g.Tab == intact.Tab {
		t.Fatal("a dead node keeps the fabric degraded")
	}
}

// A repair that empties the failed set returns the intact fabric, not a
// copy of it.
func TestFaultsFullRepairIsIntact(t *testing.T) {
	fs, intact := newFaults(t, 4, 2)
	fs.FailCable(0, 1)
	fs.RepairCable(0, 1)
	if f := fs.Fabric(); f.Tab != intact.Tab || f.Fib != intact.Fib || f.LinkMap != nil {
		t.Fatal("full repair: want the intact fabric")
	}
}
