package core

import (
	"fmt"
	"slices"

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

// Faults is a fabric's failure state (§3.2): failed links, dead nodes, and
// the epochs of injected and covered changes. A change that would
// partition the survivors is rolled back; connectivity is monotone in the
// failed set, so every state a detection may build a fabric from is
// connected. Cable only reads the graph and is safe for concurrent use;
// nothing else is.
type Faults struct {
	intact            Fabric
	g                 *topology.Graph
	links, dead       []bool          // by LinkID; by NodeID, one per vertex
	sub               *topology.Graph // the survivors, nil while nothing has failed
	linkMap           []topology.LinkID
	injected, covered uint64
}

// NewFaults returns an empty failure state over intact's graph.
func NewFaults(intact Fabric) *Faults {
	g := intact.Tab.Graph()
	return &Faults{intact: intact, g: g, links: make([]bool, g.NumLinks()), dead: make([]bool, g.Vertices())}
}

// Cable returns the links of the cable between nodes a and b: one or both
// directions.
func (fs *Faults) Cable(a, b topology.NodeID) ([]topology.LinkID, error) {
	if n := topology.NodeID(fs.g.Nodes()); a < 0 || a >= n || b < 0 || b >= n {
		return nil, fmt.Errorf("core: cable %d-%d has an endpoint out of range [0,%d)", a, b, n)
	}
	var lids []topology.LinkID
	for _, p := range [2][2]topology.NodeID{{a, b}, {b, a}} {
		if lid, ok := fs.g.LinkBetween(p[0], p[1]); ok {
			lids = append(lids, lid)
		}
	}
	if len(lids) == 0 {
		return nil, fmt.Errorf("core: no cable between %d and %d", a, b)
	}
	return lids, nil
}

// LossyCable returns the links of the cable between a and b for a
// random-drop probability p, which must lie in [0,1]: the one check of a
// drop probability, for both backends' entry points.
func (fs *Faults) LossyCable(a, b topology.NodeID, p float64) ([]topology.LinkID, error) {
	if !(p >= 0 && p <= 1) { // NaN too
		return nil, fmt.Errorf("core: drop probability %g outside [0,1]", p)
	}
	return fs.Cable(a, b)
}

// FailCable fails the cable between a and b and returns the links that
// went down.
func (fs *Faults) FailCable(a, b topology.NodeID) ([]topology.LinkID, error) {
	return fs.setCable(a, b, true)
}

// RepairCable repairs the cable between a and b, unless an end is dead,
// and returns the links that came back.
func (fs *Faults) RepairCable(a, b topology.NodeID) ([]topology.LinkID, error) {
	return fs.setCable(a, b, false)
}

func (fs *Faults) setCable(a, b topology.NodeID, failed bool) ([]topology.LinkID, error) {
	lids, err := fs.Cable(a, b)
	switch {
	case err != nil:
		return nil, err
	case !failed && (fs.dead[a] || fs.dead[b]):
		return nil, fmt.Errorf("core: cannot repair link %d-%d of a failed node", a, b)
	}
	if lids = fs.flip(lids, failed); len(lids) == 0 && failed {
		return nil, fmt.Errorf("core: no healthy link between %d and %d", a, b)
	} else if len(lids) == 0 {
		return nil, fmt.Errorf("core: no failed link between %d and %d", a, b)
	}
	return fs.commit(lids, -1)
}

// FailNode kills node v and returns its links that went down. They stay
// failed while it is dead.
func (fs *Faults) FailNode(v topology.NodeID) ([]topology.LinkID, error) {
	switch {
	case v < 0 || int(v) >= fs.g.Nodes():
		return nil, fmt.Errorf("core: node %d out of range [0,%d)", v, fs.g.Nodes())
	case fs.dead[v]:
		return nil, fmt.Errorf("core: node %d already failed", v)
	}
	fs.dead[v] = true
	return fs.commit(fs.flip(slices.Concat(fs.g.Out(v), fs.g.In(v)), true), v)
}

// flip sets the failed state of lids and returns those it changed.
func (fs *Faults) flip(lids []topology.LinkID, failed bool) (changed []topology.LinkID) {
	for _, lid := range lids {
		if fs.links[lid] != failed {
			fs.links[lid] = failed
			changed = append(changed, lid)
		}
	}
	return changed
}

// commit counts the state flipping changed (and killing node, unless
// negative) reached as an injection and returns changed, or undoes the
// change if it would partition the survivors.
func (fs *Faults) commit(changed []topology.LinkID, node topology.NodeID) ([]topology.LinkID, error) {
	sub, linkMap := (*topology.Graph)(nil), []topology.LinkID(nil)
	if slices.Contains(fs.links, true) || slices.Contains(fs.dead, true) {
		var err error
		if sub, linkMap, err = fs.g.WithoutLinksAndNodes(fs.links, fs.dead); err != nil {
			for _, lid := range changed {
				fs.links[lid] = !fs.links[lid]
			}
			if node >= 0 {
				fs.dead[node] = false
			}
			return nil, err
		}
	}
	fs.sub, fs.linkMap, fs.injected = sub, linkMap, fs.injected+1
	return changed, nil
}

// Due is the detection epoch guard: true, once, if some injection is not
// yet covered by a fabric, so a batch of detections builds one.
func (fs *Faults) Due() bool {
	due := fs.covered < fs.injected
	fs.covered = fs.injected
	return due
}

// Fabric builds the fabric of the current state: the intact one while
// nothing has failed, else a new table and FIB over the survivors.
func (fs *Faults) Fabric() Fabric {
	f := fs.intact
	if fs.sub != nil {
		f.Tab, f.Fib = routing.NewTable(fs.sub), topology.NewBroadcastFIB(fs.sub, f.trees, f.seed)
		f.LinkMap, f.Dead = fs.linkMap, slices.Clone(fs.dead)
	}
	return f
}

// Dead reports whether node v is dead.
func (fs *Faults) Dead(v topology.NodeID) bool { return fs.dead[v] }

// State returns the failed links and dead nodes by ID, to read only.
func (fs *Faults) State() (links, dead []bool) { return fs.links, fs.dead }
