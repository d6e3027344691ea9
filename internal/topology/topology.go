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
// The package also derives the artefacts every other layer relies on from
// the graph's flat (CSR) adjacency, by breadth-first search or, on a torus or
// mesh, in closed form: hop distances, minimal-route DAG successor sets, and
// per-source broadcast trees with the forwarding information base (FIB)
// described in §3.2 of the paper. A Graph keeps no per-pair state.
package topology

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
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
// NewTorus, NewMesh, NewFoldedClos, or NewGraph, which build the adjacency;
// the diameter and mean distance are measured on first use.
type Graph struct {
	kind  Kind
	k     int // radix per dimension (torus/mesh), 0 otherwise
	dims  int // number of dimensions (torus/mesh), 0 otherwise
	n     int // number of endpoint nodes
	total int // total vertices including any internal switches (Clos)

	links []Link
	// Adjacency in CSR form: v's out-links are outLinks[outOff[v]:outOff[v+1]]
	// in edge-list order, which is their port order, with their heads in
	// outTo; inLinks and inFrom list v's in-links and their tails likewise.
	outOff, inOff     []int32
	outLinks, inLinks []LinkID
	outTo, inFrom     []NodeID
	port              []int32 // per link: its index in its tail's out list
	maskBytes         int     // PortMasks row width: (max out-degree + 7) / 8
	degraded          bool    // built by WithoutLinks: coordinate routing is unsafe

	sweep    sync.Once // measures diameter and meanDist on first use
	diameter int       // largest finite distance between endpoint nodes
	meanDist float64   // mean distance over reachable distinct endpoint pairs

	// Rack metadata, set by the constructors that know it (ConnectRacks,
	// NewFoldedClos): rackOf[v] is the rack (or Clos leaf group) a vertex
	// belongs to, -1 for vertices outside any rack (spine switches). nil
	// when the fabric is a single rack. racks is the number of groups.
	// Shard partitioning (partition.go) keys off this.
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
	g := &Graph{kind: kind, n: endpoints, total: total, links: slices.Clone(edges),
		port: make([]int32, len(edges)), outOff: make([]int32, total+1), inOff: make([]int32, total+1)}
	for id, e := range edges {
		if e.From < 0 || int(e.From) >= total || e.To < 0 || int(e.To) >= total {
			return nil, fmt.Errorf("topology: edge %v out of range [0,%d)", e, total)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("topology: self-loop at node %d", e.From)
		}
		g.port[id] = g.outOff[e.From+1]
		g.outOff[e.From+1]++
		g.inOff[e.To+1]++
	}
	for v := range total {
		g.maskBytes = max(g.maskBytes, int(g.outOff[v+1]+7)/8)
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	g.outLinks, g.outTo = make([]LinkID, len(edges)), make([]NodeID, len(edges))
	g.inLinks, g.inFrom = make([]LinkID, len(edges)), make([]NodeID, len(edges))
	inNext := slices.Clone(g.inOff)
	for id, e := range edges {
		o, i := g.outOff[e.From]+g.port[id], inNext[e.To]
		if slices.Contains(g.outTo[g.outOff[e.From]:o], e.To) {
			return nil, fmt.Errorf("topology: duplicate edge %v", e)
		}
		inNext[e.To]++
		g.outLinks[o], g.outTo[o], g.inLinks[i], g.inFrom[i] = LinkID(id), e.To, LinkID(id), e.From
	}
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

// Link returns the endpoints of a directed link.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// LinkBetween returns the directed link from a to b, if one exists.
func (g *Graph) LinkBetween(a, b NodeID) (LinkID, bool) {
	p := slices.Index(g.outTo[g.outOff[a]:g.outOff[a+1]], b)
	if p < 0 {
		return 0, false
	}
	return g.outLinks[int(g.outOff[a])+p], true
}

// Out returns the outgoing link IDs of v in stable port order: the order
// their edges had in the list the graph was built from. The returned slice
// is owned by the Graph and must not be modified.
func (g *Graph) Out(v NodeID) []LinkID { return g.outLinks[g.outOff[v]:g.outOff[v+1]:g.outOff[v+1]] }

// Port returns the index of a directed link in its tail's out-port list:
// Out(Link(id).From)[Port(id)] == id.
func (g *Graph) Port(id LinkID) int { return int(g.port[id]) }

// In returns the incoming link IDs of v, in edge-list order. The slice is
// owned by the Graph.
func (g *Graph) In(v NodeID) []LinkID { return g.inLinks[g.inOff[v]:g.inOff[v+1]:g.inOff[v+1]] }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v NodeID) int { return int(g.outOff[v+1] - g.outOff[v]) }

// Dist returns the hop distance from a to b, by a search that stops once it
// reaches b, or a negative value if b is unreachable from a.
func (g *Graph) Dist(a, b NodeID) int {
	sc := g.search(nil, a, false, b)
	defer bfsPool.Put(sc)
	return int(sc.dist[b])
}

// DistancesTo returns every vertex's hop distance to dst, negative where dst
// is unreachable from the vertex.
func (g *Graph) DistancesTo(dst NodeID) []int32 {
	sc := g.search(nil, dst, true, -1)
	defer bfsPool.Put(sc)
	return slices.Clone(sc.dist)
}

// Diameter returns the maximum finite distance between endpoint nodes.
func (g *Graph) Diameter() int {
	g.sweep.Do(g.measure)
	return g.diameter
}

// MeanNodeDistance returns the average hop distance between distinct
// endpoint pairs that reach each other — the "average path length" figure
// used for broadcast overhead accounting in §3.2.
func (g *Graph) MeanNodeDistance() float64 {
	g.sweep.Do(g.measure)
	return g.meanDist
}

// measure runs one exact all-pairs sweep, 64 endpoint sources at a time: bit
// s of reach[v] says source base+s has reached v, and each level pushes the
// newly reached bits along every out-link. Distances sum as integers, so the
// mean is exact.
func (g *Graph) measure() {
	reach, front, next := make([]uint64, g.total), make([]uint64, g.total), make([]uint64, g.total)
	sum, pairs := 0, 0
	for base := 0; base < g.n; base += 64 {
		clear(reach)
		for s := base; s < min(base+64, g.n); s++ {
			reach[s] = 1 << (s - base)
		}
		copy(front, reach)
		for level := 1; slices.ContainsFunc(front, func(f uint64) bool { return f != 0 }); level++ {
			clear(next)
			for v, f := range front {
				for o := g.outOff[v]; f != 0 && o < g.outOff[v+1]; o++ {
					next[g.outTo[o]] |= f
				}
			}
			for u, f := range next {
				next[u], reach[u] = f&^reach[u], reach[u]|f
				if c := bits.OnesCount64(next[u]); c > 0 && u < g.n {
					sum, pairs, g.diameter = sum+level*c, pairs+c, max(g.diameter, level)
				}
			}
			front, next = next, front
		}
	}
	g.meanDist = float64(sum) / float64(max(pairs, 1))
}

// bfsScratch is a search's working memory. Searches take it from bfsPool, so
// a warm search allocates nothing.
type bfsScratch struct {
	dist  []int32  // hops from the root, -1 where unreached
	queue []NodeID // the breadth-first search's queue
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// search fills sc.dist with every vertex's hops from root, or to root when
// reverse is set, stopping once it reaches stop (-1 for never); sc is one
// from bfsPool when nil, for the caller to return. A breadth-first search
// over the out- or in-links does this, or the closed form on an undegraded
// torus or mesh: the sum over dimensions of the hops along each ring or line.
func (g *Graph) search(sc *bfsScratch, root NodeID, reverse bool, stop NodeID) *bfsScratch {
	if sc == nil {
		sc = bfsPool.Get().(*bfsScratch)
	}
	sc.dist = slices.Grow(sc.dist[:0], g.total)[:g.total]
	dist, off, adj := sc.dist, g.outOff, g.outTo
	if g.k > 0 && !g.degraded {
		// The rows of the dimensions below d form a block, repeated for each
		// coordinate c of dimension d with c's hops added; the block itself,
		// c = 0, goes last.
		dist[0] = 0
		for size, r := 1, int(root); size < g.n; size, r = size*g.k, r/g.k {
			for c := g.k - 1; c >= 0; c-- {
				h := int32(max(c-r%g.k, r%g.k-c))
				if g.kind == KindTorus {
					h = min(h, int32(g.k)-h)
				}
				for i := range size {
					dist[c*size+i] = dist[i] + h
				}
			}
		}
		return sc
	}
	for v := range dist {
		dist[v] = -1
	}
	dist[root] = 0
	if reverse {
		off, adj = g.inOff, g.inFrom
	}
	q := append(slices.Grow(sc.queue[:0], g.total), root)
	for i := 0; i < len(q) && (stop < 0 || dist[stop] < 0); i++ {
		for _, u := range adj[off[q[i]]:off[q[i]+1]] {
			if dist[u] < 0 {
				dist[u] = dist[q[i]] + 1
				q = append(q, u)
			}
		}
	}
	sc.queue = q
	return sc
}

// firstUnreached returns the first endpoint node not marked in dead that a
// search from root does not reach (when reverse: that does not reach root),
// or -1.
func (g *Graph) firstUnreached(root NodeID, reverse bool, dead []bool) int {
	sc := g.search(nil, root, reverse, -1)
	defer bfsPool.Put(sc)
	for v, d := range sc.dist[:g.n] {
		if d < 0 && (v >= len(dead) || !dead[v]) {
			return v
		}
	}
	return -1
}

// PortMasks holds one set of out-ports per vertex as a bitmask: bit i of v's
// row names g.Out(v)[i]. Every row is the graph's mask width, one byte on any
// fabric with at most 8 ports per vertex, so a structure kept per source or
// per destination (broadcast trees, minimal-route DAGs) costs a byte per
// vertex, and every set lists in port order.
type PortMasks struct {
	off  []int32  // the graph's out-list offsets
	out  []LinkID // and its out-links: port p of v is out[off[v]+p]
	bits []byte   // v's row is bits[v*w : (v+1)*w]
	w    int
}

// newPortMasks wraps bits, which holds one row per vertex of g.
func (g *Graph) newPortMasks(bits []byte) PortMasks {
	return PortMasks{off: g.outOff, out: g.outLinks, bits: bits, w: g.maskBytes}
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
		return m.out[m.off[v]+int32(selectTab[m.bits[v]][i])]
	}
	for j, b := range m.row(v) {
		if c := bits.OnesCount8(b); i >= c {
			i -= c
			continue
		}
		return m.out[int(m.off[v])+8*j+int(selectTab[b][i])]
	}
	panic(fmt.Sprintf("topology: PortMasks.Pick(%d, %d) past the set's end", v, i))
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
	sc := g.search(nil, dst, true, -1)
	defer bfsPool.Put(sc)
	m := g.newPortMasks(make([]byte, g.total*g.maskBytes))
	dist, off, to := sc.dist, g.outOff, g.outTo
	for v, dv := range dist {
		for o := off[v]; dv > 0 && o < off[v+1]; o++ {
			if dist[to[o]] == dv-1 {
				m.set(NodeID(v), int(o-off[v]))
			}
		}
	}
	return &m
}

// WithoutLinksAndNodes returns the degraded fabric after an arbitrary mix
// of link and node failures (§3.2, "Failures"): every link marked in
// `failed` (indexed by LinkID) plus every link of every node marked in
// `dead` (indexed by NodeID) is removed. A nil mask marks nothing. It also
// returns a mapping from each new link ID to the corresponding link ID in g;
// vertex IDs are preserved. This is the fire-time recompute used by the
// failure path — overlapping failures accumulate in the two masks and the
// fabric is always rebuilt from their union, never from a stale snapshot.
// Dead nodes are allowed to be unreachable; every other pair of endpoints
// must remain mutually connected, or it returns an error: R2C2 assumes the
// rack stays connected (a torus survives many link failures).
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
	root := 0 // every survivor reaches, and is reached from, the first one
	for root < sub.n-1 && isDead(NodeID(root)) {
		root++
	}
	if b := sub.firstUnreached(NodeID(root), false, dead); b >= 0 {
		return nil, nil, fmt.Errorf("topology: failures partition the rack (%d unreachable from %d)", b, root)
	}
	if a := sub.firstUnreached(NodeID(root), true, dead); a >= 0 {
		return nil, nil, fmt.Errorf("topology: failures partition the rack (%d unreachable from %d)", root, a)
	}
	return sub, mapping, nil
}
