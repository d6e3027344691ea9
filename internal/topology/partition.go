package topology

import "fmt"

// Partition assigns every vertex of a rack-structured fabric to a shard for
// the sharded simulation engine. NewPartition gives one shard per rack
// (ConnectRacks) or per leaf group (folded Clos); Grouped joins contiguous
// racks into fewer shards, which is what the engine runs: one shard per
// worker. Either assignment is a pure function of the graph and the shard
// count.
type Partition struct {
	shards   int
	shardOf  []int32
	boundary []LinkID
}

// NewPartition derives the per-rack shard assignment of g. Spine switches
// (vertices in no rack group) are distributed round-robin across shards in
// vertex order. It returns an error when the fabric has no rack structure
// to shard by (single-rack tori/meshes run serially).
func NewPartition(g *Graph) (*Partition, error) {
	racks := g.Racks()
	if racks < 2 {
		return nil, fmt.Errorf("topology: fabric has no rack structure to shard by (%d rack groups)", racks)
	}
	return newPartition(g, racks, func(v NodeID) int32 { return int32(g.RackOf(v)) })
}

// Grouped joins p's shards into n shards of contiguous ones: shard s goes to
// group s·n/S, so group sizes differ by at most one of p's shards, and spine
// switches are dealt round-robin across the groups. g must be the graph p
// partitions. With n at least p.Shards() the grouping is p itself; n ≤ 1
// is an error, since one shard needs no partition.
func (p *Partition) Grouped(g *Graph, n int) (*Partition, error) {
	if n <= 1 {
		return nil, fmt.Errorf("topology: cannot group a partition into %d shards", n)
	}
	if n >= p.shards {
		return p, nil
	}
	S := p.shards
	return newPartition(g, n, func(v NodeID) int32 { return int32(int(p.shardOf[v]) * n / S) })
}

// newPartition assigns every rack vertex v to shard of(v) and the spines
// round-robin over the shards, then collects the boundary links.
func newPartition(g *Graph, shards int, of func(v NodeID) int32) (*Partition, error) {
	p := &Partition{shards: shards, shardOf: make([]int32, g.Vertices())}
	spine := 0
	for v := 0; v < g.Vertices(); v++ {
		if g.RackOf(NodeID(v)) >= 0 {
			p.shardOf[v] = of(NodeID(v))
		} else {
			p.shardOf[v] = int32(spine % shards)
			spine++
		}
	}
	for lid := 0; lid < g.NumLinks(); lid++ {
		l := g.Link(LinkID(lid))
		if p.shardOf[l.From] != p.shardOf[l.To] {
			p.boundary = append(p.boundary, LinkID(lid))
		}
	}
	if len(p.boundary) == 0 {
		return nil, fmt.Errorf("topology: partition has no boundary links (racks are disconnected?)")
	}
	return p, nil
}

// Shards returns the number of shards.
func (p *Partition) Shards() int { return p.shards }

// ShardOf returns the shard a vertex belongs to.
func (p *Partition) ShardOf(v NodeID) int32 { return p.shardOf[v] }

// ShardAssignment returns the per-vertex shard map. The slice is owned by
// the Partition and must not be modified.
func (p *Partition) ShardAssignment() []int32 { return p.shardOf }

// BoundaryLinks returns the directed links whose endpoints lie in different
// shards, in ascending link order. The slice is owned by the Partition.
func (p *Partition) BoundaryLinks() []LinkID { return p.boundary }
