package topology

import "fmt"

// NewTorus builds a k-ary n-cube: dims dimensions of radix k with
// wraparound links, the fabric used by SeaMicro/Moonshot-class rack-scale
// computers (§2.1, Figure 1). Each node has 2·dims outgoing links except
// when k == 2, where +1 and -1 reach the same neighbour and only one link
// is created per dimension.
//
// Port order is deterministic: dimension 0 positive, dimension 0 negative,
// dimension 1 positive, ... which the routing layer relies on for
// reproducible path encoding.
func NewTorus(k, dims int) (*Graph, error) { return newCube(KindTorus, k, dims) }

// NewMesh builds a k-ary n-dimensional mesh: the torus without wraparound
// links, so border nodes have lower degree. Port order is the torus's, less
// the links that do not exist.
func NewMesh(k, dims int) (*Graph, error) { return newCube(KindMesh, k, dims) }

func newCube(kind Kind, k, dims int) (*Graph, error) {
	if k < 2 || dims < 1 {
		return nil, fmt.Errorf("topology: %v requires k >= 2, dims >= 1 (got k=%d dims=%d)", kind, k, dims)
	}
	n := pow(k, dims)
	edges := make([]Link, 0, n*2*dims)
	coord := make([]int, dims)
	for id := 0; id < n; id++ {
		idToCoord(id, k, coord)
		for d := 0; d < dims; d++ {
			orig := coord[d]
			for i, c := range []int{orig + 1, orig - 1} {
				if kind == KindTorus {
					c = (c + k) % k
				}
				// A mesh has no link off its edge; a ring of two has one link
				// per dimension, not a second one back to the same neighbour.
				if c < 0 || c >= k || i == 1 && kind == KindTorus && k == 2 {
					continue
				}
				coord[d] = c
				edges = append(edges, Link{From: NodeID(id), To: NodeID(coordToID(coord, k))})
			}
			coord[d] = orig
		}
	}
	g, err := NewGraph(kind, n, n, edges)
	if err != nil {
		return nil, err
	}
	g.k, g.dims = k, dims
	return g, nil
}

// NewFoldedClos builds a two-level folded-Clos (leaf/spine) topology with
// `leaves` leaf switches, `spines` spine switches and `hostsPerLeaf`
// endpoint nodes per leaf — the switched alternative discussed in §6
// ("R2C2 atop switched networks"). Endpoint nodes occupy vertex IDs
// [0, leaves*hostsPerLeaf); leaf switches and spine switches follow.
func NewFoldedClos(leaves, spines, hostsPerLeaf int) (*Graph, error) {
	if leaves < 1 || spines < 1 || hostsPerLeaf < 1 {
		return nil, fmt.Errorf("topology: clos requires positive leaves/spines/hosts (got %d/%d/%d)",
			leaves, spines, hostsPerLeaf)
	}
	n := leaves * hostsPerLeaf
	total := n + leaves + spines
	leafBase := n
	spineBase := n + leaves
	var edges []Link
	for l := 0; l < leaves; l++ {
		leaf := NodeID(leafBase + l)
		for h := 0; h < hostsPerLeaf; h++ {
			host := NodeID(l*hostsPerLeaf + h)
			edges = append(edges, Link{From: host, To: leaf}, Link{From: leaf, To: host})
		}
		for s := 0; s < spines; s++ {
			spine := NodeID(spineBase + s)
			edges = append(edges, Link{From: leaf, To: spine}, Link{From: spine, To: leaf})
		}
	}
	g, err := NewGraph(KindClos, n, total, edges)
	if err != nil {
		return nil, err
	}
	// Each leaf group (its hosts plus the leaf switch) is one "rack" for
	// partitioning; spines belong to no rack and are marked -1.
	g.rackOf = make([]int32, total)
	for v := 0; v < n; v++ {
		g.rackOf[v] = int32(v / hostsPerLeaf)
	}
	for l := 0; l < leaves; l++ {
		g.rackOf[leafBase+l] = int32(l)
	}
	for s := 0; s < spines; s++ {
		g.rackOf[spineBase+s] = -1
	}
	g.racks = leaves
	return g, nil
}

// Coord returns the coordinate vector of a torus/mesh node. It panics for
// non-cube graphs.
func (g *Graph) Coord(id NodeID) []int {
	return g.CoordInto(make([]int, g.dims), id)
}

// CoordInto is Coord writing into the caller's slice, which must hold one
// entry per dimension; it returns c.
func (g *Graph) CoordInto(c []int, id NodeID) []int {
	if g.k == 0 {
		panic("topology: Coord on non-cube graph")
	}
	idToCoord(int(id), g.k, c[:g.dims])
	return c
}

// NodeAt returns the torus/mesh node at the given coordinates. It panics
// for non-cube graphs or mismatched dimensionality.
func (g *Graph) NodeAt(coord []int) NodeID {
	if g.k == 0 {
		panic("topology: NodeAt on non-cube graph")
	}
	if len(coord) != g.dims {
		panic(fmt.Sprintf("topology: NodeAt got %d coords for %d dims", len(coord), g.dims))
	}
	return NodeID(coordToID(coord, g.k))
}

// TorusOffset returns the signed per-dimension offset from a to b choosing
// the short way around each ring. Ties (offset exactly k/2, even k) resolve
// by the parity of a's coordinate in that dimension, so that deterministic
// single-path routing stays balanced across +/- links in aggregate — the
// convention the destination-tag channel-load analysis of Figure 2 assumes.
// Panics for non-torus graphs.
func (g *Graph) TorusOffset(a, b NodeID) []int {
	return g.TorusOffsetInto(make([]int, g.dims), a, b)
}

// TorusOffsetInto is TorusOffset writing into the caller's slice, which must
// hold one entry per dimension; it returns off.
func (g *Graph) TorusOffsetInto(off []int, a, b NodeID) []int {
	if g.kind != KindTorus {
		panic("topology: TorusOffset on non-torus graph")
	}
	ia, ib := int(a), int(b)
	for d := range off[:g.dims] {
		ca, cb := ia%g.k, ib%g.k // the base-k digits idToCoord would write
		ia, ib = ia/g.k, ib/g.k
		delta := ((cb-ca)%g.k + g.k) % g.k // forward distance in [0,k)
		switch {
		case delta > g.k/2:
			off[d] = delta - g.k // the ring is shorter going backwards
		case 2*delta == g.k && ca%2 == 1:
			off[d] = delta - g.k // tie: odd source coordinate goes backwards
		default:
			off[d] = delta
		}
	}
	return off
}

func pow(k, n int) int {
	p := 1
	for i := 0; i < n; i++ {
		p *= k
	}
	return p
}

// idToCoord writes the base-k digits of id into coord, least-significant
// digit in coord[0].
func idToCoord(id, k int, coord []int) {
	for d := range coord {
		coord[d] = id % k
		id /= k
	}
}

func coordToID(coord []int, k int) int {
	id := 0
	for d := len(coord) - 1; d >= 0; d-- {
		id = id*k + coord[d]
	}
	return id
}
