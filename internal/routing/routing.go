// Package routing implements the routing protocols R2C2 multiplexes across
// a rack fabric (§2.2.1, §4.2): random packet spraying (RPS),
// destination-tag (dimension-order) routing, Valiant load balancing (VLB),
// weighted / locality-preserving load balancing (WLB), and an ECMP-style
// single-path protocol used by the TCP baseline.
//
// Each protocol exposes two faces:
//
//   - A per-packet path sampler (the data plane): given a flow and an RNG,
//     produce the exact sequence of links a packet traverses, which the
//     sender encodes into the packet header (§3.5).
//
//   - An exact per-link rate-fraction vector φ (the control plane): the
//     fraction of the flow's rate that crosses each directed link, which is
//     what makes flow-level rate computation tractable (§3.3: "a flow's
//     routing protocol dictates its relative rate across its paths").
//
// φ-vectors are deterministic functions of {protocol, src, dst} and are
// precomputed and cached per {protocol, destination} exactly as the paper's
// prototype does (§4.2, "Rate computation").
package routing

import (
	"fmt"
	"sync"
	"sync/atomic"

	"r2c2/internal/topology"
)

// Protocol identifies a routing protocol. The byte values are what the
// broadcast packets carry in their rp field.
type Protocol uint8

// The routing protocols implemented by this stack.
const (
	RPS  Protocol = iota // random packet spraying over all minimal paths
	DOR                  // destination-tag / dimension-order (single minimal path)
	VLB                  // Valiant: random waypoint, then minimal
	WLB                  // weighted (locality-preserving) load balancing
	ECMP                 // single minimal path chosen by flow hash (TCP baseline)

	numProtocols
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case RPS:
		return "RPS"
	case DOR:
		return "DOR"
	case VLB:
		return "VLB"
	case WLB:
		return "WLB"
	case ECMP:
		return "ECMP"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// Valid reports whether p names an implemented protocol.
func (p Protocol) Valid() bool { return p < numProtocols }

// Phi is a sparse per-link rate-fraction vector for one flow: Frac[i] of
// the flow's total rate crosses directed link Links[i]. Flow conservation
// holds at every node: net outflow is +1 at the source, -1 at the
// destination and 0 elsewhere. (For non-minimal protocols such as VLB the
// gross outflow of a node can exceed its net outflow, because relayed
// traffic may transit the source again.) Links ascend for RPS, VLB and WLB;
// for DOR and ECMP they are the one path, in hop order.
type Phi struct {
	Links []topology.LinkID
	Frac  []float64
}

// Len returns the number of links the flow touches.
func (p Phi) Len() int { return len(p.Links) }

// Table precomputes and caches routing state for one topology: minimal-route
// DAGs per destination, φ-vectors per {protocol, src, dst}, and the VLB
// source/destination marginals. A Table is safe for concurrent use.
type Table struct {
	g *topology.Graph

	// succ holds the minimal DAG toward each destination vertex: a dense slot
	// published once built, so the per-packet samplers read it without a lock
	// (mu serialises first builds only).
	succ []atomic.Pointer[topology.PortMasks]

	mu       sync.RWMutex
	phiCache map[phiKey]Phi
	vlbSrc   map[topology.NodeID][]float64 // dense per-link: (1/N)·Σ_w φRPS(s,w)
	vlbDst   map[topology.NodeID][]float64 // dense per-link: (1/N)·Σ_w φRPS(w,d)
}

type phiKey struct {
	p        Protocol
	src, dst topology.NodeID
}

// NewTable creates a routing table for g.
func NewTable(g *topology.Graph) *Table {
	return &Table{
		g:        g,
		succ:     make([]atomic.Pointer[topology.PortMasks], g.Vertices()),
		phiCache: make(map[phiKey]Phi),
		vlbSrc:   make(map[topology.NodeID][]float64),
		vlbDst:   make(map[topology.NodeID][]float64),
	}
}

// Graph returns the topology the table was built for.
func (t *Table) Graph() *topology.Graph { return t.g }

// successors returns (caching) the minimal-route DAG toward dst.
func (t *Table) successors(dst topology.NodeID) *topology.PortMasks {
	if s := t.succ[dst].Load(); s != nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.succ[dst].Load()
	if s == nil {
		s = t.g.MinimalSuccessors(dst)
		t.succ[dst].Store(s)
	}
	return s
}

// Phi returns the per-link rate-fraction vector for a flow from src to dst
// under protocol p. It panics if src == dst. ECMP flows hash onto one of
// the DOR-style single paths; for allocation purposes their φ equals the
// deterministic DOR path (the allocator in this repo never sees ECMP flows,
// which belong to the TCP baseline).
func (t *Table) Phi(p Protocol, src, dst topology.NodeID) Phi {
	if src == dst {
		panic("routing: Phi for src == dst")
	}
	key := phiKey{p: p, src: src, dst: dst}
	t.mu.RLock()
	phi, ok := t.phiCache[key]
	t.mu.RUnlock()
	if ok {
		return phi
	}
	switch p {
	case RPS:
		phi = t.phiRPS(src, dst)
	case DOR, ECMP:
		phi = t.phiDOR(src, dst)
	case VLB:
		phi = t.phiVLB(src, dst)
	case WLB:
		phi = t.phiWLB(src, dst)
	default:
		panic(fmt.Sprintf("routing: Phi for unknown protocol %v", p))
	}
	t.mu.Lock()
	t.phiCache[key] = phi
	t.mu.Unlock()
	return phi
}
