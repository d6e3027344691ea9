package core

import (
	"slices"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
)

// Fabric is one fault generation's routing state (§3.2): table and
// broadcast FIB over the surviving graph, the map of its link IDs to
// physical ports (nil while intact), and the nodes dead when it was built.
// Table and FIB fill lazily behind their own locks; the rest is immutable,
// so every reader of a generation shares one.
type Fabric struct {
	Tab     *routing.Table
	Fib     *topology.BroadcastFIB
	LinkMap []topology.LinkID
	Dead    []bool // by NodeID, one per vertex

	trees int // the FIBs' trees per source and seed
	seed  int64
}

// NewFabric returns the intact fabric over tab's graph, with trees
// broadcast trees per source drawn from seed.
func NewFabric(tab *routing.Table, trees int, seed int64) Fabric {
	g := tab.Graph()
	return Fabric{Tab: tab, Fib: topology.NewBroadcastFIB(g, trees, seed), Dead: make([]bool, g.Vertices()), trees: trees, seed: seed}
}

// PhysInPlace translates a path of fabric link IDs to physical ports in a
// buffer the caller owns.
func (f *Fabric) PhysInPlace(path []topology.LinkID) {
	if f.LinkMap != nil {
		for i, lid := range path {
			path[i] = f.LinkMap[lid]
		}
	}
}

// Degrade returns the fabric of failure state st over f, the intact
// fabric: f itself while nothing has failed, else a new table and FIB over
// the survivors, with a snapshot of the dead nodes.
func (f Fabric) Degrade(st *faults.State) Fabric {
	if sub, linkMap := st.Survivors(); sub != nil {
		_, dead := st.Failed()
		f.Tab, f.Fib = routing.NewTable(sub), topology.NewBroadcastFIB(sub, f.trees, f.seed)
		f.LinkMap, f.Dead = linkMap, slices.Clone(dead)
	}
	return f
}
