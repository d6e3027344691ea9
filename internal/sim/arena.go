package sim

import "r2c2/internal/topology"

// Slab arena for simulated packets (DESIGN.md §12), replacing the
// unbounded per-run free list. Packets are carved from fixed-size slabs —
// the mbuf-pool idiom DPDK and trex-emu use, adapted to a single-threaded
// engine: one slab is one allocation holding pktSlabSize Packet structs
// plus an index stack, so steady-state newPacket/freePacket touch no
// allocator at all, and a transient incast burst no longer pins its peak
// packet count for the rest of the run — slabs that drain back to fully
// free beyond a small idle watermark are released to the GC.
//
// Membership invariants: a slab lives on exactly one of the arena's two
// lists (partial: ≥1 free and ≥1 live slot; idle: all slots free) or on
// neither while completely full. alloc always takes from the LAST partial
// slab, so filling it up is a pop; freeing maintains list membership via
// the slab's recorded position (swap-remove).

const (
	// pktSlabSize packets per slab: 64 × ~14 cache lines ≈ 1 page-ish
	// allocation, large enough to amortise slab bookkeeping, small enough
	// that burst slabs drain back to fully-free quickly.
	pktSlabSize = 64
	// maxIdleSlabs fully-free slabs are retained for reuse; beyond that
	// they are released to the GC. Steady-state traffic keeps its working
	// set in partial slabs, so the idle list only absorbs burst decay.
	maxIdleSlabs = 2
)

// pktSlab is one arena segment: a fixed array of packets and a stack of
// free slot indices.
type pktSlab struct {
	pkts    [pktSlabSize]Packet
	freeIdx [pktSlabSize]uint8
	nfree   int
	pos     int // index within its current list (swap-remove support)
}

// pktArena carves packets from slabs. The zero value is ready to use.
type pktArena struct {
	partial []*pktSlab
	idle    []*pktSlab

	// pathCap is how many links the route-sampling buffer of each packet of
	// a new slab holds: the longest path any routing protocol draws on the
	// intact fabric, so that no pooled packet ever regrows its buffer.
	pathCap int
}

// newSlab allocates and initialises one segment: every slot free, every
// packet tagged pooled, back-linked to its slab and given its window of the
// slab's one array of route-sampling buffers.
func (a *pktArena) newSlab() *pktSlab {
	s := &pktSlab{nfree: pktSlabSize}
	scratch := make([]topology.LinkID, pktSlabSize*a.pathCap)
	for i := 0; i < pktSlabSize; i++ {
		s.freeIdx[i] = uint8(i)
		s.pkts[i].slab = s
		s.pkts[i].slabIdx = uint8(i)
		s.pkts[i].pooled = true
		s.pkts[i].scratch = scratch[i*a.pathCap : i*a.pathCap : (i+1)*a.pathCap]
	}
	return s
}

// alloc returns a zeroed, pooled packet slot.
func (a *pktArena) alloc() *Packet {
	var s *pktSlab
	if k := len(a.partial); k > 0 {
		s = a.partial[k-1]
	} else if k := len(a.idle); k > 0 {
		s = a.idle[k-1]
		a.idle = a.idle[:k-1]
		s.pos = len(a.partial)
		a.partial = append(a.partial, s)
	} else {
		s = a.newSlab()
		s.pos = len(a.partial)
		a.partial = append(a.partial, s)
	}
	s.nfree--
	idx := s.freeIdx[s.nfree]
	if s.nfree == 0 {
		// s is the last partial (alloc always takes from the tail): pop.
		a.partial = a.partial[:len(a.partial)-1]
	}
	return &s.pkts[idx]
}

// free returns a packet slot to its slab, maintaining list membership and
// releasing fully-drained slabs beyond the idle watermark.
func (a *pktArena) free(p *Packet) {
	s := p.slab
	if s == nil {
		return // externally constructed packet: let the GC have it
	}
	s.freeIdx[s.nfree] = p.slabIdx
	s.nfree++
	switch {
	case s.nfree == 1:
		// Was full: back onto the partial list.
		s.pos = len(a.partial)
		a.partial = append(a.partial, s)
	case s.nfree == pktSlabSize:
		// Fully drained: off partial, onto idle or released to the GC.
		a.removePartial(s)
		if len(a.idle) < maxIdleSlabs {
			s.pos = len(a.idle)
			a.idle = append(a.idle, s)
		}
	}
}

// removePartial swap-removes s from the partial list.
func (a *pktArena) removePartial(s *pktSlab) {
	last := len(a.partial) - 1
	if s.pos != last {
		moved := a.partial[last]
		a.partial[s.pos] = moved
		moved.pos = s.pos
	}
	a.partial[last] = nil
	a.partial = a.partial[:last]
}
