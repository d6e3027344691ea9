package core

import (
	"testing"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
)

// newFaults returns an empty failure state over a k-ary dims-cube torus and
// the intact fabric a degraded one is built over.
func newFaults(t *testing.T, k, dims int) (*faults.State, Fabric) {
	t.Helper()
	g, err := topology.NewTorus(k, dims)
	if err != nil {
		t.Fatal(err)
	}
	return faults.NewState(g), NewFabric(routing.NewTable(g), 2, 1)
}

// apply applies fault events a test expects to be legal.
func apply(t *testing.T, st *faults.State, evs ...faults.Event) {
	t.Helper()
	for _, e := range evs {
		if _, err := st.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
}

var (
	down01  = faults.Event{Kind: faults.LinkDown, A: 0, B: 1}
	up01    = faults.Event{Kind: faults.LinkRepair, A: 0, B: 1}
	crash09 = faults.Event{Kind: faults.NodeDown, Node: 9}
)

// With nothing failed the fabric is the intact one, tables and all; a
// degraded one maps its links to physical ports and snapshots the dead.
func TestFaultsFabric(t *testing.T) {
	st, intact := newFaults(t, 4, 2)
	if f := intact.Degrade(st); f.Tab != intact.Tab || f.Fib != intact.Fib || f.LinkMap != nil {
		t.Fatal("no failure: want the intact fabric")
	}
	apply(t, st, down01, crash09)
	f := intact.Degrade(st)
	if f.Tab == intact.Tab || f.LinkMap == nil || !f.Dead[9] {
		t.Fatal("failures: want a degraded fabric with node 9 dead")
	}
	_, dead := st.Failed()
	dead[9] = false // the snapshot does not follow the live state
	if !f.Dead[9] {
		t.Fatal("the fabric's dead nodes alias the live state")
	}
	dead[9] = true
	path := []topology.LinkID{0, 1}
	f.PhysInPlace(path)
	if path[0] != f.LinkMap[0] || path[1] != f.LinkMap[1] {
		t.Fatalf("translated path %v, want %v", path, f.LinkMap[:2])
	}
	apply(t, st, up01)
	if g := intact.Degrade(st); g.Tab == intact.Tab {
		t.Fatal("a dead node keeps the fabric degraded")
	}
}

// A repair that empties the failed set returns the intact fabric, not a
// copy of it.
func TestFaultsFullRepairIsIntact(t *testing.T) {
	st, intact := newFaults(t, 4, 2)
	apply(t, st, down01, up01)
	if f := intact.Degrade(st); f.Tab != intact.Tab || f.Fib != intact.Fib || f.LinkMap != nil {
		t.Fatal("full repair: want the intact fabric")
	}
}
