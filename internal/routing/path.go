package routing

import (
	"fmt"
	"math/rand"

	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// AppendPath draws one packet path from src to dst under protocol p, as the
// sequence of directed links the packet traverses, and appends it to buf.
// This is what the sender encodes into the packet header (§3.5): randomised
// protocols (RPS, VLB, WLB) consult rng; deterministic ones (DOR) ignore it.
// For ECMP use ECMPPath, which needs the flow identifier. Reuse buf's
// capacity across draws to keep per-packet sampling allocation-free.
func (t *Table) AppendPath(buf []topology.LinkID, p Protocol, src, dst topology.NodeID, rng *rand.Rand) []topology.LinkID {
	if src == dst {
		return buf
	}
	switch p {
	case RPS:
		return t.sprayPath(src, dst, rng, buf)
	case DOR:
		at := src
		for at != dst {
			lid := t.dorNext(at, dst)
			buf = append(buf, lid)
			at = t.g.Link(lid).To
		}
		return buf
	case VLB:
		// Uniform random waypoint, then minimal spraying in both phases.
		w := topology.NodeID(rng.Intn(t.g.Nodes()))
		buf = t.sprayPath(src, w, rng, buf)
		return t.sprayPath(w, dst, rng, buf)
	case WLB:
		return t.wlbPath(src, dst, rng, buf)
	case ECMP:
		panic("routing: AppendPath(ECMP) — use ECMPPath with the flow ID")
	default:
		panic(fmt.Sprintf("routing: AppendPath for unknown protocol %v", p))
	}
}

// sprayPath appends a uniformly sprayed minimal path from src to dst onto
// path and returns it.
func (t *Table) sprayPath(src, dst topology.NodeID, rng *rand.Rand, path []topology.LinkID) []topology.LinkID {
	if src == dst {
		return path
	}
	succ := t.successors(dst)
	at := src
	for at != dst {
		lid := succ.Pick(at, rng.Intn(succ.Count(at)))
		path = append(path, lid)
		at = t.g.Link(lid).To
	}
	return path
}

// wlbPath appends one weighted-load-balancing path onto path: per-dimension
// direction choice (short way w.p. (k-δ)/k), then uniform interleaving of
// the per-dimension hops. Falls back to RPS on non-torus graphs, mirroring
// phiWLB.
func (t *Table) wlbPath(src, dst topology.NodeID, rng *rand.Rand, path []topology.LinkID) []topology.LinkID {
	g := t.g
	if g.Kind() != topology.KindTorus || g.Degraded() {
		return t.sprayPath(src, dst, rng, path)
	}
	k := g.Radix()
	dims := g.Dims()
	// Scratch on the stack for up to eight dimensions: the table is shared by
	// the emulator's sender goroutines, so it cannot carry scratch of its own.
	var stack [4 * 8]int
	scratch := stack[:]
	if 4*dims > len(scratch) {
		scratch = make([]int, 4*dims)
	}
	off := g.TorusOffsetInto(scratch[:dims], src, dst)
	dirs, remaining := scratch[dims:2*dims], scratch[2*dims:3*dims]
	for d := 0; d < dims; d++ {
		mag, dir := off[d], 1
		if mag < 0 {
			mag, dir = -mag, -1
		}
		if mag == 0 {
			continue
		}
		if rng.Float64() < float64(k-mag)/float64(k) {
			dirs[d], remaining[d] = dir, mag // short way
		} else {
			dirs[d], remaining[d] = -dir, k-mag // long way
		}
	}
	coord := g.CoordInto(scratch[3*dims:4*dims], src)
	for {
		active := 0
		for d := 0; d < dims; d++ {
			if remaining[d] > 0 {
				active++
			}
		}
		if active == 0 {
			return path
		}
		pick := rng.Intn(active)
		for d := 0; d < dims; d++ {
			if remaining[d] == 0 {
				continue
			}
			if pick > 0 {
				pick--
				continue
			}
			from := g.NodeAt(coord)
			coord[d] = ((coord[d]+dirs[d])%k + k) % k
			lid, ok := g.LinkBetween(from, g.NodeAt(coord))
			if !ok {
				panic("routing: missing torus link in WLB walk")
			}
			path = append(path, lid)
			remaining[d]--
			break
		}
	}
}

// ECMPPath returns the single minimal path used by an ECMP flow: at each
// hop the successor is chosen by a deterministic hash of the flow ID and
// the hop index, so all packets of a flow follow one path but different
// flows between the same endpoints spread over different shortest paths
// (§5.2: "we assign different shortest paths to different flows between the
// same endpoints").
func (t *Table) ECMPPath(src, dst topology.NodeID, flow wire.FlowID) []topology.LinkID {
	if src == dst {
		return nil
	}
	succ := t.successors(dst)
	var path []topology.LinkID
	at := src
	h := uint64(flow)*0x9E3779B97F4A7C15 + 0x7F4A7C15
	hop := 0
	for at != dst {
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		h ^= uint64(hop) * 0xC4CEB9FE1A85EC53
		lid := succ.Pick(at, int(h%uint64(succ.Count(at))))
		path = append(path, lid)
		at = t.g.Link(lid).To
		hop++
	}
	return path
}

// AppendPortRoute converts a link path into the 3-bit-per-hop port route
// carried in the data packet header and appends it to buf: each entry is the
// index of the link within the out-port list of the node the packet is at.
// It fails if any node on the path has more than wire.MaxPorts links or if
// the path is longer than the route field allows; then buf is returned
// unextended. Reuse buf's capacity across packets to keep per-packet route
// encoding allocation-free.
func (t *Table) AppendPortRoute(buf wire.Route, path []topology.LinkID) (wire.Route, error) {
	if len(path) > wire.MaxRouteHops {
		return buf, wire.ErrRouteTooLong
	}
	orig := len(buf)
	for _, lid := range path {
		port := t.g.Port(lid)
		if port >= wire.MaxPorts {
			return buf[:orig], wire.ErrBadPort
		}
		buf = append(buf, uint8(port))
	}
	return buf, nil
}
