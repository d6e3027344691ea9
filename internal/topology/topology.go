// Package topology models the direct-connect network fabrics used by
// rack-scale computers: k-ary n-cube tori, meshes, and (for comparison,
// §6 of the paper) a two-level folded-Clos switched topology.
//
// A Graph is a directed multigraph of unidirectional links between nodes.
// Every physical cable is represented as two directed links, one per
// direction, because rate allocation and queueing are per-direction
// concerns. All links in a rack have identical capacity, so the Graph does
// not store per-link capacity; simulators and allocators attach it.
//
// The package also precomputes the artefacts every other layer relies on:
// all-pairs BFS distances, minimal-route DAG successor sets, and per-source
// broadcast trees with the forwarding information base (FIB) described in
// §3.2 of the paper.
package topology

import (
	"fmt"
	"math/bits"
)

// NodeID identifies a node (micro-server) in the rack, in [0, N).
type NodeID int32

// LinkID identifies a directed link, in [0, L).
type LinkID int32

// Link is a unidirectional link from one node to a neighbouring node.
type Link struct {
	From NodeID
	To   NodeID
}

// Kind enumerates the supported fabric families.
type Kind int

// Supported fabric families.
const (
	KindTorus     Kind = iota // k-ary n-cube with wraparound
	KindMesh                  // k-ary n-cube without wraparound
	KindClos                  // two-level folded Clos (switched, single path)
	KindMultiRack             // racks joined by direct inter-rack cables (§6)
)

// String returns the family name.
func (k Kind) String() string {
	switch k {
	case KindTorus:
		return "torus"
	case KindMesh:
		return "mesh"
	case KindClos:
		return "clos"
	case KindMultiRack:
		return "multirack"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Graph is an immutable directed graph over rack nodes. Construct with
// NewTorus, NewMesh, NewFoldedClos, or NewGraph; all precomputation happens
// at construction.
type Graph struct {
	kind  Kind
	k     int // radix per dimension (torus/mesh), 0 otherwise
	dims  int // number of dimensions (torus/mesh), 0 otherwise
	n     int // number of endpoint nodes
	total int // total vertices including any internal switches (Clos)

	links     []Link
	out       [][]LinkID // outgoing links per node, stable port order
	in        [][]LinkID
	port      []int32 // per link: its index in its tail's out list
	maskBytes int     // PortMasks row width: (max out-degree + 7) / 8
	linkIndex map[Link]LinkID
	degraded  bool // built by WithoutLinks: coordinate routing is unsafe

	dist     [][]int32 // all-pairs hop distance over all vertices
	diameter int       // largest finite distance between endpoint nodes

	// Rack metadata, set by the constructors that know it (ConnectRacks,
	// NewFoldedClos): rackOf[v] is the rack (or Clos leaf group) a vertex
	// belongs to, -1 for vertices outside any rack (spine switches). nil
	// when the fabric is a single rack. racks is the number of groups.
	// Shard partitioning (partition.go) and inter-rack link timing
	// (sim.NetConfig.InterRackPropDelay) both key off this.
	rackOf []int32
	racks  int
}

// NewGraph builds a graph from an explicit directed edge list over
// `endpoints` endpoint nodes plus optional internal vertices. Vertices are
// 0..total-1; the first `endpoints` of them are rack nodes that source and
// sink traffic. It returns an error on out-of-range or duplicate edges.
func NewGraph(kind Kind, endpoints, total int, edges []Link) (*Graph, error) {
	if endpoints <= 0 || total < endpoints {
		return nil, fmt.Errorf("topology: invalid sizes endpoints=%d total=%d", endpoints, total)
	}
	g := &Graph{
		kind:      kind,
		n:         endpoints,
		total:     total,
		out:       make([][]LinkID, total),
		in:        make([][]LinkID, total),
		linkIndex: make(map[Link]LinkID, len(edges)),
	}
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= total || e.To < 0 || int(e.To) >= total {
			return nil, fmt.Errorf("topology: edge %v out of range [0,%d)", e, total)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("topology: self-loop at node %d", e.From)
		}
		if _, dup := g.linkIndex[e]; dup {
			return nil, fmt.Errorf("topology: duplicate edge %v", e)
		}
		id := LinkID(len(g.links))
		g.links = append(g.links, e)
		g.linkIndex[e] = id
		g.port = append(g.port, int32(len(g.out[e.From])))
		g.out[e.From] = append(g.out[e.From], id)
		g.in[e.To] = append(g.in[e.To], id)
	}
	maxDegree := 0
	for _, out := range g.out {
		maxDegree = max(maxDegree, len(out))
	}
	g.maskBytes = (maxDegree + 7) / 8
	g.computeDistances()
	return g, nil
}

// Kind reports the fabric family.
func (g *Graph) Kind() Kind { return g.kind }

// Nodes returns the number of endpoint nodes (micro-servers).
func (g *Graph) Nodes() int { return g.n }

// Vertices returns the total vertex count including internal switches.
func (g *Graph) Vertices() int { return g.total }

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Radix returns the per-dimension radix k for torus/mesh graphs, 0 otherwise.
func (g *Graph) Radix() int { return g.k }

// Degraded reports whether this graph was built by removing links from a
// regular fabric: coordinate-based routing (dimension order, WLB quadrant
// walks) must not assume every torus link exists on a degraded graph.
func (g *Graph) Degraded() bool { return g.degraded }

// Dims returns the dimension count for torus/mesh graphs, 0 otherwise.
func (g *Graph) Dims() int { return g.dims }

// Racks returns the number of rack groups the fabric was assembled from
// (ConnectRacks racks, folded-Clos leaf groups), or 0 for a single-rack
// fabric with no group structure.
func (g *Graph) Racks() int { return g.racks }

// RackOf returns the rack group of a vertex, or -1 when the vertex belongs
// to no rack (a Clos spine switch) or the fabric has no rack structure.
func (g *Graph) RackOf(v NodeID) int {
	if g.rackOf == nil {
		return -1
	}
	return int(g.rackOf[v])
}

// IsInterRack reports whether a directed link leaves its endpoint's rack
// group: an inter-rack bridge cable or a Clos leaf-spine hop. Always false
// on fabrics without rack structure.
func (g *Graph) IsInterRack(lid LinkID) bool {
	if g.rackOf == nil {
		return false
	}
	l := g.links[lid]
	return g.rackOf[l.From] != g.rackOf[l.To]
}

// Link returns the endpoints of a directed link.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// LinkBetween returns the directed link from a to b, if one exists.
func (g *Graph) LinkBetween(a, b NodeID) (LinkID, bool) {
	id, ok := g.linkIndex[Link{From: a, To: b}]
	return id, ok
}

// Out returns the outgoing link IDs of v in stable port order. The returned
// slice is owned by the Graph and must not be modified.
func (g *Graph) Out(v NodeID) []LinkID { return g.out[v] }

// Port returns the index of a directed link in its tail's out-port list:
// Out(Link(id).From)[Port(id)] == id.
func (g *Graph) Port(id LinkID) int { return int(g.port[id]) }

// In returns the incoming link IDs of v. The slice is owned by the Graph.
func (g *Graph) In(v NodeID) []LinkID { return g.in[v] }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v NodeID) int { return len(g.out[v]) }

// Dist returns the hop distance from a to b (precomputed BFS). It returns a
// negative value if b is unreachable from a.
func (g *Graph) Dist(a, b NodeID) int { return int(g.dist[a][b]) }

// Diameter returns the maximum finite distance between endpoint nodes.
func (g *Graph) Diameter() int { return g.diameter }

// MeanNodeDistance returns the average hop distance between distinct
// endpoint pairs — the "average path length" figure used for broadcast
// overhead accounting in §3.2.
func (g *Graph) MeanNodeDistance() float64 {
	sum, cnt := 0.0, 0
	for a := 0; a < g.n; a++ {
		for b := 0; b < g.n; b++ {
			if a == b {
				continue
			}
			sum += float64(g.dist[a][b])
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

func (g *Graph) computeDistances() {
	g.dist = make([][]int32, g.total)
	queue := make([]NodeID, 0, g.total)
	for s := 0; s < g.total; s++ {
		d := make([]int32, g.total)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue = queue[:0]
		queue = append(queue, NodeID(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, lid := range g.out[v] {
				u := g.links[lid].To
				if d[u] < 0 {
					d[u] = d[v] + 1
					queue = append(queue, u)
				}
			}
		}
		g.dist[s] = d
		if s < g.n {
			for _, hops := range d[:g.n] {
				g.diameter = max(g.diameter, int(hops))
			}
		}
	}
}

// PortMasks holds one set of out-ports per vertex as a bitmask: bit i of v's
// row names g.Out(v)[i]. Every row is the graph's mask width, one byte on any
// fabric with at most 8 ports per vertex, so a structure kept per source or
// per destination (broadcast trees, minimal-route DAGs) costs a byte per
// vertex, and every set lists in port order.
type PortMasks struct {
	out  [][]LinkID // the graph's out-port lists
	bits []byte     // v's row is bits[v*w : (v+1)*w]
	w    int
}

// newPortMasks wraps bits, which holds one row per vertex of g.
func (g *Graph) newPortMasks(bits []byte) PortMasks {
	return PortMasks{out: g.out, bits: bits, w: g.maskBytes}
}

// selectTab[b][i] is the position of the i-th set bit of b, and 8 past b's
// last set bit: Pick reads a one-byte row with one lookup.
var selectTab = func() (t [256][8]uint8) {
	for b := range t {
		for i := range t[b] {
			t[b][i] = 8
		}
		i := 0
		for bit := 0; bit < 8; bit++ {
			if b&(1<<bit) != 0 {
				t[b][i] = uint8(bit)
				i++
			}
		}
	}
	return t
}()

func (m *PortMasks) row(v NodeID) []byte { return m.bits[int(v)*m.w : (int(v)+1)*m.w] }

// set adds port p to v's set.
func (m *PortMasks) set(v NodeID, p int) { m.bits[int(v)*m.w+p/8] |= 1 << (p % 8) }

// Count returns the size of v's set.
func (m *PortMasks) Count(v NodeID) int {
	if m.w == 1 { // every fabric with at most 8 ports per vertex
		return bits.OnesCount8(m.bits[v])
	}
	n := 0
	for _, b := range m.row(v) {
		n += bits.OnesCount8(b)
	}
	return n
}

// Pick returns the i-th link of v's set in port order, for i in [0, Count(v)).
func (m *PortMasks) Pick(v NodeID, i int) LinkID {
	if m.w == 1 {
		return m.out[v][selectTab[m.bits[v]][i]]
	}
	for j, b := range m.row(v) {
		if c := bits.OnesCount8(b); i >= c {
			i -= c
			continue
		}
		return m.out[v][8*j+int(selectTab[b][i])]
	}
	panic(fmt.Sprintf("topology: PortMasks.Pick(%d, %d) past the set's end", v, i))
}

// AppendLinks appends v's set to buf in port order and returns the extended
// slice.
func (m *PortMasks) AppendLinks(buf []LinkID, v NodeID) []LinkID {
	return appendPorts(buf, m.out[v], m.row(v))
}

// total returns the size of all the sets together.
func (m *PortMasks) total() int {
	n := 0
	for _, b := range m.bits {
		n += bits.OnesCount8(b)
	}
	return n
}

// appendPorts appends the links of out that row's set bits name.
func appendPorts(buf []LinkID, out []LinkID, row []byte) []LinkID {
	for j, b := range row {
		for ; b != 0; b &= b - 1 {
			buf = append(buf, out[8*j+bits.TrailingZeros8(b)])
		}
	}
	return buf
}

// MinimalSuccessors returns, for destination dst, the successor sets of the
// minimal-route DAG: v's set holds the outgoing links of v that lie on some
// shortest path from v to dst. The set of dst is empty. Random packet
// spraying picks uniformly among these at every hop (§2.2.1).
func (g *Graph) MinimalSuccessors(dst NodeID) *PortMasks {
	// One strided walk down the distance matrix's column for dst, so that the
	// pass below, which looks up both ends of every link, reads one array.
	toDst := make([]int32, g.total)
	for v := range toDst {
		toDst[v] = g.dist[v][dst]
	}
	m := g.newPortMasks(make([]byte, g.total*g.maskBytes))
	for v, dv := range toDst {
		if dv <= 0 {
			continue
		}
		for p, lid := range g.out[v] {
			if toDst[g.links[lid].To] == dv-1 {
				m.set(NodeID(v), p)
			}
		}
	}
	return &m
}

// WithoutLinks returns the graph with the given directed links removed —
// the degraded fabric after link or node failures (§3.2, "Failures") — and
// a mapping from each new link ID to the corresponding link ID in the
// original graph. Vertex IDs are preserved. It returns an error if any
// endpoint node would become unreachable from another: R2C2 assumes the
// rack stays connected (a torus survives many link failures).
func (g *Graph) WithoutLinks(failed ...LinkID) (*Graph, []LinkID, error) {
	mask := make([]bool, len(g.links))
	for _, lid := range failed {
		mask[lid] = true
	}
	return g.WithoutLinksAndNodes(mask, nil)
}

// WithoutNode returns the graph with every link of `dead` removed — the
// degraded fabric after a node failure — plus the link-ID mapping of
// WithoutLinks. The dead node itself is allowed to be unreachable; every
// pair of surviving endpoints must remain mutually connected.
func (g *Graph) WithoutNode(dead NodeID) (*Graph, []LinkID, error) {
	mask := make([]bool, g.n)
	mask[dead] = true
	return g.WithoutLinksAndNodes(nil, mask)
}

// WithoutLinksAndNodes returns the degraded fabric after an arbitrary mix
// of link and node failures: every link marked in `failed` (indexed by
// LinkID) plus every link of every node marked in `dead` (indexed by
// NodeID) is removed. A nil mask marks nothing. This is the fire-time
// recompute used by the failure path — overlapping failures accumulate in
// the two masks and the fabric is always rebuilt from their union, never
// from a stale snapshot. Dead nodes are allowed to be unreachable; every
// pair of surviving endpoints must remain mutually connected.
func (g *Graph) WithoutLinksAndNodes(failed, dead []bool) (*Graph, []LinkID, error) {
	isDead := func(v NodeID) bool { return int(v) < len(dead) && dead[v] }
	edges := make([]Link, 0, len(g.links))
	mapping := make([]LinkID, 0, len(g.links))
	for id, l := range g.links {
		if id < len(failed) && failed[id] || isDead(l.From) || isDead(l.To) {
			continue
		}
		edges = append(edges, l)
		mapping = append(mapping, LinkID(id))
	}
	sub, err := NewGraph(g.kind, g.n, g.total, edges)
	if err != nil {
		return nil, nil, err
	}
	sub.k, sub.dims = g.k, g.dims
	// Vertex IDs are preserved, so the rack metadata carries over verbatim
	// (the slice is immutable after construction and safe to share).
	sub.rackOf, sub.racks = g.rackOf, g.racks
	sub.degraded = g.degraded || len(edges) < len(g.links)
	for a := 0; a < sub.n; a++ {
		if isDead(NodeID(a)) {
			continue
		}
		for b := 0; b < sub.n; b++ {
			if isDead(NodeID(b)) {
				continue
			}
			if sub.Dist(NodeID(a), NodeID(b)) < 0 {
				return nil, nil, fmt.Errorf("topology: failures partition the rack (%d unreachable from %d)", b, a)
			}
		}
	}
	return sub, mapping, nil
}

// NodesAtDistance returns the endpoint nodes grouped by distance from src:
// result[d] lists nodes at exactly d hops. Used by broadcast-tree
// construction and by overhead analytics.
func (g *Graph) NodesAtDistance(src NodeID) [][]NodeID {
	byDist := make([][]NodeID, 0, 8)
	for v := 0; v < g.total; v++ {
		d := int(g.dist[src][v])
		if d < 0 {
			continue
		}
		for len(byDist) <= d {
			byDist = append(byDist, nil)
		}
		byDist[d] = append(byDist[d], NodeID(v))
	}
	return byDist
}
