package faults

import (
	"fmt"
	"slices"

	"r2c2/internal/topology"
)

// State is a rack's failure state (§3.2): failed links, dead nodes, and the
// epochs of injected and covered changes. Apply is the one judge of a fault
// event, for Schedule.Validate and both backends. A change that would
// partition the survivors is rolled back; connectivity is monotone in the
// failed set, so every state a detection may build a fabric from is
// connected.
type State struct {
	g                 *topology.Graph
	links, dead       []bool          // by LinkID; by NodeID, one per vertex
	sub               *topology.Graph // the survivors, nil while nothing has failed
	linkMap           []topology.LinkID
	injected, covered uint64
}

// NewState returns the failure state of g with nothing failed.
func NewState(g *topology.Graph) *State {
	return &State{g: g, links: make([]bool, g.NumLinks()), dead: make([]bool, g.Vertices())}
}

// Apply judges e and, if it is legal, applies it. It returns the links e
// changes, in the order a backend flips their ports: the cable's links that
// went down or came back, a crashed node's links that went down, or the
// cable's links whose drop probability a LinkDrop sets. It refuses an
// endpoint out of range, a missing cable, a cable of a dead node, a cable
// already down or not down, a second crash of a node, a drop probability
// outside [0,1] and a change that would partition the survivors, and then
// leaves the state as it was.
func (s *State) Apply(e Event) ([]topology.LinkID, error) {
	switch e.Kind {
	case NodeDown:
		return s.crash(e.Node)
	case LinkDown, LinkRepair, LinkDrop:
	default:
		return nil, fmt.Errorf("faults: unknown event kind %d", e.Kind)
	}
	lids, err := s.cable(e.A, e.B)
	switch {
	case err != nil:
		return nil, err
	case s.dead[e.A] || s.dead[e.B]:
		return nil, fmt.Errorf("faults: %v touches a cable of a crashed node", e)
	case e.Kind == LinkDrop && !(e.DropProb >= 0 && e.DropProb <= 1): // NaN too
		return nil, fmt.Errorf("faults: drop probability %g outside [0,1]", e.DropProb)
	case e.Kind == LinkDrop:
		return lids, nil
	}
	if lids = s.flip(lids, e.Kind == LinkDown); len(lids) == 0 {
		return nil, fmt.Errorf("faults: %v leaves cable %d-%d as it was", e, e.A, e.B)
	}
	return s.commit(lids, -1)
}

// cable returns the links of the cable between nodes a and b: one or both
// directions.
func (s *State) cable(a, b topology.NodeID) ([]topology.LinkID, error) {
	if n := topology.NodeID(s.g.Nodes()); a < 0 || a >= n || b < 0 || b >= n {
		return nil, fmt.Errorf("faults: cable %d-%d has an endpoint out of range [0,%d)", a, b, n)
	}
	var lids []topology.LinkID
	for _, p := range [2][2]topology.NodeID{{a, b}, {b, a}} {
		if lid, ok := s.g.LinkBetween(p[0], p[1]); ok {
			lids = append(lids, lid)
		}
	}
	if len(lids) == 0 {
		return nil, fmt.Errorf("faults: no cable between %d and %d", a, b)
	}
	return lids, nil
}

// crash kills node v and returns its links that went down. They stay
// failed while it is dead.
func (s *State) crash(v topology.NodeID) ([]topology.LinkID, error) {
	switch {
	case v < 0 || int(v) >= s.g.Nodes():
		return nil, fmt.Errorf("faults: crash node %d out of range [0,%d)", v, s.g.Nodes())
	case s.dead[v]:
		return nil, fmt.Errorf("faults: node %d crashed twice", v)
	}
	s.dead[v] = true
	return s.commit(s.flip(slices.Concat(s.g.Out(v), s.g.In(v)), true), v)
}

// flip sets the failed state of lids and returns those it changed.
func (s *State) flip(lids []topology.LinkID, failed bool) (changed []topology.LinkID) {
	for _, lid := range lids {
		if s.links[lid] != failed {
			s.links[lid] = failed
			changed = append(changed, lid)
		}
	}
	return changed
}

// commit counts the state flipping changed (and killing node, unless
// negative) reached as an injection and returns changed, or undoes the
// change if it would partition the survivors.
func (s *State) commit(changed []topology.LinkID, node topology.NodeID) ([]topology.LinkID, error) {
	sub, linkMap := (*topology.Graph)(nil), []topology.LinkID(nil)
	if slices.Contains(s.links, true) || slices.Contains(s.dead, true) {
		var err error
		if sub, linkMap, err = s.g.WithoutLinksAndNodes(s.links, s.dead); err != nil {
			for _, lid := range changed {
				s.links[lid] = !s.links[lid]
			}
			if node >= 0 {
				s.dead[node] = false
			}
			return nil, err
		}
	}
	s.sub, s.linkMap, s.injected = sub, linkMap, s.injected+1
	return changed, nil
}

// Due is the detection epoch guard: true, once, if some injection is not
// yet covered by a fabric, so a batch of detections builds one.
func (s *State) Due() bool {
	due := s.covered < s.injected
	s.covered = s.injected
	return due
}

// Dead reports whether node v is dead.
func (s *State) Dead(v topology.NodeID) bool { return s.dead[v] }

// Failed returns the failed links and dead nodes by ID, to read only.
func (s *State) Failed() (links, dead []bool) { return s.links, s.dead }

// Survivors returns the graph of the surviving links and nodes and the map
// of its link IDs to the rack's, or nil while nothing has failed.
func (s *State) Survivors() (*topology.Graph, []topology.LinkID) { return s.sub, s.linkMap }
