package routing

import (
	"slices"
	"sort"

	"r2c2/internal/topology"
)

// phiRPS computes the exact per-link fractions of random packet spraying:
// at every hop the packet picks uniformly among the minimal successors, so
// link fractions follow from propagating unit probability mass down the
// minimal-route DAG in decreasing distance-to-destination order.
func (t *Table) phiRPS(src, dst topology.NodeID) Phi {
	dense := make(map[topology.LinkID]float64)
	t.sprayMass(src, dst, 1.0, dense)
	return sparsify(dense)
}

// sprayMass adds `mass` units of RPS traffic from src to dst into dense.
func (t *Table) sprayMass(src, dst topology.NodeID, mass float64, dense map[topology.LinkID]float64) {
	if src == dst || mass == 0 {
		return
	}
	succ := t.successors(dst)
	d0 := 0 // src's distance to dst, walked along first successors
	for v := src; v != dst; d0++ {
		if succ.Count(v) == 0 {
			return // dst is unreachable
		}
		v = t.g.Link(succ.Pick(v, 0)).To
	}
	// Bucket DAG nodes by distance to dst; propagate from d0 down to 1.
	nodeMass := map[topology.NodeID]float64{src: mass}
	frontier := []topology.NodeID{src}
	for d := d0; d >= 1; d-- {
		var next []topology.NodeID
		seen := make(map[topology.NodeID]bool)
		for _, v := range frontier {
			m := nodeMass[v]
			n := succ.Count(v)
			share := m / float64(n)
			for i := 0; i < n; i++ {
				lid := succ.Pick(v, i)
				dense[lid] += share
				to := t.g.Link(lid).To
				if to != dst {
					if !seen[to] {
						seen[to] = true
						next = append(next, to)
					}
					nodeMass[to] += share
				}
			}
			delete(nodeMass, v)
		}
		frontier = next
	}
}

// phiDOR computes the single deterministic destination-tag path: dimension-
// order routing on cube topologies (correct dimension 0 first, short way
// around each ring, ties positive), and the lowest-port minimal path on
// other graphs.
func (t *Table) phiDOR(src, dst topology.NodeID) Phi {
	path := t.dorPath(src, dst)
	phi := Phi{Links: path, Frac: make([]float64, len(path))}
	for i := range phi.Frac {
		phi.Frac[i] = 1
	}
	return phi
}

// dorPath returns the deterministic DOR path as a link sequence.
func (t *Table) dorPath(src, dst topology.NodeID) []topology.LinkID {
	var path []topology.LinkID
	at := src
	for at != dst {
		lid := t.dorNext(at, dst)
		path = append(path, lid)
		at = t.g.Link(lid).To
	}
	return path
}

// dorNext returns the next DOR hop from v toward dst. On a degraded fabric
// the coordinate walk may hit a failed link, so it falls back to the
// deterministic minimal-successor rule (§3.2 failures leave routing to the
// surviving minimal DAG).
func (t *Table) dorNext(v, dst topology.NodeID) topology.LinkID {
	g := t.g
	if g.Radix() > 0 && !g.Degraded() { // cube graph: dimension-order
		k, dims := g.Radix(), g.Dims()
		// Scratch on the stack for up to eight dimensions: the emulator
		// samples a DOR path per packet, from goroutines sharing the table.
		var stack [3 * 8]int
		scratch := stack[:]
		if 3*dims > len(scratch) {
			scratch = make([]int, 3*dims)
		}
		cv, off := g.CoordInto(scratch[:dims], v), scratch[dims:2*dims]
		if g.Kind() == topology.KindTorus {
			g.TorusOffsetInto(off, v, dst)
		} else {
			cd := g.CoordInto(scratch[2*dims:3*dims], dst)
			for d := range off {
				off[d] = cd[d] - cv[d]
			}
		}
		for d := 0; d < dims; d++ {
			if off[d] == 0 {
				continue
			}
			step := 1
			if off[d] < 0 {
				step = -1
			}
			cv[d] = ((cv[d]+step)%k + k) % k // cv becomes the next hop's coordinates
			lid, ok := g.LinkBetween(v, g.NodeAt(cv))
			if !ok {
				panic("routing: missing cube link")
			}
			return lid
		}
		panic("routing: dorNext called with v == dst")
	}
	// General graph: deterministic minimal successor with smallest link ID.
	succ := t.successors(dst)
	n := succ.Count(v)
	if n == 0 {
		panic("routing: no minimal successor")
	}
	best := succ.Pick(v, 0)
	for i := 1; i < n; i++ {
		best = min(best, succ.Pick(v, i))
	}
	return best
}

// phiVLB computes Valiant load balancing fractions. A VLB packet picks a
// uniformly random waypoint w and is spray-routed minimally src→w then
// w→dst, so
//
//	φ(s,d) = (1/N)·Σ_w [φRPS(s,w) + φRPS(w,d)].
//
// The second marginal is one mass-propagation pass over the DAG toward d;
// the first is cached per source (§4.2 precomputes per-destination weight
// lists the same way).
func (t *Table) phiVLB(src, dst topology.NodeID) Phi {
	srcVec := t.vlbSrcVec(src)
	dstVec := t.vlbDstVec(dst)
	dense := make(map[topology.LinkID]float64)
	for lid, f := range srcVec {
		if f != 0 {
			dense[topology.LinkID(lid)] += f
		}
	}
	for lid, f := range dstVec {
		if f != 0 {
			dense[topology.LinkID(lid)] += f
		}
	}
	return sparsify(dense)
}

// vlbSrcVec returns (caching) the dense per-link vector (1/N)·Σ_w φRPS(s,w).
func (t *Table) vlbSrcVec(s topology.NodeID) []float64 {
	t.mu.RLock()
	v, ok := t.vlbSrc[s]
	t.mu.RUnlock()
	if ok {
		return v
	}
	n := t.g.Nodes()
	dense := make(map[topology.LinkID]float64)
	for w := 0; w < n; w++ {
		if topology.NodeID(w) == s {
			continue
		}
		t.sprayMass(s, topology.NodeID(w), 1/float64(n), dense)
	}
	vec := make([]float64, t.g.NumLinks())
	for lid, f := range dense {
		vec[lid] = f
	}
	t.mu.Lock()
	t.vlbSrc[s] = vec
	t.mu.Unlock()
	return vec
}

// vlbDstVec returns (caching) the dense per-link vector (1/N)·Σ_w φRPS(w,d),
// computed with a single propagation pass: every node starts with 1/N mass
// and all mass drains down the minimal DAG toward d.
func (t *Table) vlbDstVec(d topology.NodeID) []float64 {
	t.mu.RLock()
	v, ok := t.vlbDst[d]
	t.mu.RUnlock()
	if ok {
		return v
	}
	g := t.g
	n := g.Nodes()
	succ := t.successors(d)
	vec := make([]float64, g.NumLinks())
	// Group vertices by distance to d, farthest first.
	dist := g.DistancesTo(d)
	byDist := make([][]topology.NodeID, slices.Max(dist)+1)
	for v, dd := range dist {
		if dd > 0 {
			byDist[dd] = append(byDist[dd], topology.NodeID(v))
		}
	}
	mass := make([]float64, g.Vertices())
	for w := 0; w < n; w++ { // only endpoint nodes source VLB waypoint traffic
		if topology.NodeID(w) != d {
			mass[w] = 1 / float64(n)
		}
	}
	for dd := len(byDist) - 1; dd >= 1; dd-- {
		for _, v := range byDist[dd] {
			m := mass[v]
			if m == 0 {
				continue
			}
			n := succ.Count(v)
			share := m / float64(n)
			for i := 0; i < n; i++ {
				lid := succ.Pick(v, i)
				vec[lid] += share
				mass[g.Link(lid).To] += share
			}
		}
	}
	t.mu.Lock()
	t.vlbDst[d] = vec
	t.mu.Unlock()
	return vec
}

// phiWLB computes the locality-preserving weighted load balancing of Singh
// et al. [44], the paper's WLB: in every torus dimension the packet travels
// the minimal direction with probability (k-δ)/k and the long way around
// with probability δ/k (δ = minimal hop count in that dimension), then
// routes minimally inside the chosen "quadrant" with uniform spraying. This
// biases path selection in proportion to path length, sitting between
// minimal routing and VLB (§2.2.1). On non-torus graphs WLB degenerates to
// RPS.
func (t *Table) phiWLB(src, dst topology.NodeID) Phi {
	g := t.g
	if g.Kind() != topology.KindTorus || g.Degraded() {
		return t.phiRPS(src, dst)
	}
	off := g.TorusOffset(src, dst)
	k := g.Radix()
	dims := g.Dims()

	type dimChoice struct {
		dir  int     // +1 or -1 coordinate step
		hops int     // hops to travel in this dimension
		prob float64 // probability of this choice
	}
	choices := make([][]dimChoice, dims)
	for d := 0; d < dims; d++ {
		delta := off[d]
		mag := delta
		dir := 1
		if delta < 0 {
			mag = -delta
			dir = -1
		}
		if mag == 0 {
			choices[d] = []dimChoice{{dir: 1, hops: 0, prob: 1}}
			continue
		}
		short := dimChoice{dir: dir, hops: mag, prob: float64(k-mag) / float64(k)}
		long := dimChoice{dir: -dir, hops: k - mag, prob: float64(mag) / float64(k)}
		choices[d] = []dimChoice{short, long}
	}

	dense := make(map[topology.LinkID]float64)
	// Enumerate quadrants (product of per-dimension choices).
	idx := make([]int, dims)
	for {
		prob := 1.0
		dirs := make([]int, dims)
		hops := make([]int, dims)
		for d := 0; d < dims; d++ {
			c := choices[d][idx[d]]
			prob *= c.prob
			dirs[d] = c.dir
			hops[d] = c.hops
		}
		if prob > 0 {
			t.quadrantMass(src, dirs, hops, prob, dense)
		}
		// Advance the mixed-radix counter.
		d := 0
		for d < dims {
			idx[d]++
			if idx[d] < len(choices[d]) {
				break
			}
			idx[d] = 0
			d++
		}
		if d == dims {
			break
		}
	}
	return sparsify(dense)
}

// quadrantMass propagates `mass` units from src through the quadrant DAG
// where the packet must travel hops[d] steps in coordinate direction
// dirs[d] for each dimension, choosing uniformly at every hop among
// dimensions with remaining travel.
func (t *Table) quadrantMass(src topology.NodeID, dirs, hops []int, mass float64, dense map[topology.LinkID]float64) {
	g := t.g
	k := g.Radix()
	dims := g.Dims()
	// State space: remaining hop vector r, 0 <= r[d] <= hops[d]. Encode as a
	// mixed-radix index. Process states in decreasing total remaining hops.
	size := 1
	stride := make([]int, dims)
	for d := 0; d < dims; d++ {
		stride[d] = size
		size *= hops[d] + 1
	}
	stateMass := make([]float64, size)
	start := size - 1 // r == hops in every dimension
	stateMass[start] = mass
	total := 0
	for _, h := range hops {
		total += h
	}
	srcCoord := g.Coord(src)

	// Enumerate states grouped by total remaining hops, descending.
	r := make([]int, dims)
	coord := make([]int, dims)
	byRemaining := make([][]int, total+1)
	for s := 0; s < size; s++ {
		rem := 0
		x := s
		for d := 0; d < dims; d++ {
			rd := x % (hops[d] + 1)
			x /= hops[d] + 1
			rem += rd
		}
		byRemaining[rem] = append(byRemaining[rem], s)
	}
	for rem := total; rem >= 1; rem-- {
		for _, s := range byRemaining[rem] {
			m := stateMass[s]
			if m == 0 {
				continue
			}
			// Decode remaining vector and current coordinates.
			x := s
			active := 0
			for d := 0; d < dims; d++ {
				r[d] = x % (hops[d] + 1)
				x /= hops[d] + 1
				coord[d] = ((srcCoord[d]+dirs[d]*(hops[d]-r[d]))%k + k) % k
				if r[d] > 0 {
					active++
				}
			}
			share := m / float64(active)
			from := g.NodeAt(coord)
			for d := 0; d < dims; d++ {
				if r[d] == 0 {
					continue
				}
				next := coord[d]
				coord[d] = ((coord[d]+dirs[d])%k + k) % k
				lid, ok := g.LinkBetween(from, g.NodeAt(coord))
				coord[d] = next
				if !ok {
					panic("routing: missing torus link in quadrant walk")
				}
				dense[lid] += share
				stateMass[s-stride[d]] += share
			}
		}
	}
}

// sparsify converts a dense link->fraction map into a Phi with links in
// ascending order (deterministic output for tests and caching).
func sparsify(dense map[topology.LinkID]float64) Phi {
	phi := Phi{
		Links: make([]topology.LinkID, 0, len(dense)),
		Frac:  make([]float64, 0, len(dense)),
	}
	for lid := range dense {
		phi.Links = append(phi.Links, lid)
	}
	sort.Slice(phi.Links, func(i, j int) bool { return phi.Links[i] < phi.Links[j] })
	for _, lid := range phi.Links {
		phi.Frac = append(phi.Frac, dense[lid])
	}
	return phi
}
