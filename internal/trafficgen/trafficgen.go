// Package trafficgen generates the network workloads used throughout the
// evaluation (§5): the heavy-tailed Poisson/Pareto datacenter workload the
// simulator replays, the classic torus traffic patterns of the Figure 2
// routing study, and the permutation workloads of the adaptive-routing
// experiment (Figure 18).
//
// All generators are deterministic given their seed, so experiments are
// reproducible and the emulator/simulator cross-validation (Figure 7) can
// replay the identical flow sequence on both platforms.
package trafficgen

import (
	"fmt"
	"math"
	"math/rand"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
)

// Arrival describes one flow arrival.
type Arrival struct {
	At        simtime.Time
	Src, Dst  topology.NodeID
	SizeBytes int64
	Weight    uint8
	Priority  uint8
}

// PoissonConfig parameterises the synthetic datacenter workload of §5.2:
// Poisson arrivals with the given mean inter-arrival time, flow sizes from
// a Pareto distribution (shape 1.05, mean 100 KB, yielding the heavy tail
// where ~95% of flows are under 100 KB), and uniformly random
// source/destination pairs.
type PoissonConfig struct {
	Nodes        int          // rack size
	MeanInterval simtime.Time // mean flow inter-arrival time τ
	MaxFlowBytes int64        // tail cap; 0 means 1 GB
	Count        int          // number of flows to generate
	Seed         int64
}

// The §5.2 flow-size distribution: Pareto shape α and mean.
const (
	paretoShape   = 1.05
	meanFlowBytes = 100e3
)

func (c *PoissonConfig) defaults() {
	if c.MaxFlowBytes == 0 {
		c.MaxFlowBytes = 1 << 30
	}
}

// Poisson generates cfg.Count flow arrivals. It panics on a non-positive
// node count, interval or count.
func Poisson(cfg PoissonConfig) []Arrival {
	cfg.defaults()
	if cfg.Nodes < 2 || cfg.MeanInterval <= 0 || cfg.Count <= 0 {
		panic(fmt.Sprintf("trafficgen: invalid Poisson config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	arrivals := make([]Arrival, cfg.Count)
	t := simtime.Time(0)
	for i := range arrivals {
		t += simtime.Time(rng.ExpFloat64() * float64(cfg.MeanInterval))
		src := topology.NodeID(rng.Intn(cfg.Nodes))
		dst := topology.NodeID(rng.Intn(cfg.Nodes - 1))
		if dst >= src {
			dst++
		}
		arrivals[i] = Arrival{
			At:        t,
			Src:       src,
			Dst:       dst,
			SizeBytes: paretoSize(rng, paretoShape, meanFlowBytes, cfg.MaxFlowBytes),
			Weight:    1,
		}
	}
	return arrivals
}

// FixedSize generates cfg.Count flows of exactly sizeBytes with Poisson
// arrivals — the 1,000 × 10 MB workload of the Figure 7 cross-validation.
func FixedSize(cfg PoissonConfig, sizeBytes int64) []Arrival {
	arrivals := Poisson(cfg)
	for i := range arrivals {
		arrivals[i].SizeBytes = sizeBytes
	}
	return arrivals
}

// paretoSize samples a Pareto(α, xm) size where xm is derived from the
// requested mean: mean = xm·α/(α-1). The tail is capped at max.
func paretoSize(rng *rand.Rand, shape, mean float64, max int64) int64 {
	xm := mean * (shape - 1) / shape
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	v := xm / math.Pow(u, 1/shape)
	if v > float64(max) {
		v = float64(max)
	}
	if v < 1 {
		v = 1
	}
	return int64(v)
}

// ---- Figure 2 traffic patterns (classic k-ary n-cube benchmarks) ----

// Uniform returns the uniform-random pattern: every node injects one unit
// spread equally over all other nodes.
func Uniform(g *topology.Graph) []routing.Demand {
	n := g.Nodes()
	ds := make([]routing.Demand, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			ds = append(ds, routing.Demand{
				Src: topology.NodeID(s), Dst: topology.NodeID(d), Rate: 1 / float64(n-1)})
		}
	}
	return ds
}

// NearestNeighbor returns the nearest-neighbour pattern: every node injects
// one unit spread equally over its direct neighbours.
func NearestNeighbor(g *topology.Graph) []routing.Demand {
	var ds []routing.Demand
	for s := 0; s < g.Nodes(); s++ {
		out := g.Out(topology.NodeID(s))
		for _, lid := range out {
			ds = append(ds, routing.Demand{
				Src: topology.NodeID(s), Dst: g.Link(lid).To, Rate: 1 / float64(len(out))})
		}
	}
	return ds
}

// BitComplement returns the bit-complement permutation: node with
// coordinates (c0,…,cn) sends to (k-1-c0,…,k-1-cn).
func BitComplement(g *topology.Graph) []routing.Demand {
	mustCube(g, "BitComplement")
	k := g.Radix()
	var ds []routing.Demand
	for s := 0; s < g.Nodes(); s++ {
		c := g.Coord(topology.NodeID(s))
		for d := range c {
			c[d] = k - 1 - c[d]
		}
		dst := g.NodeAt(c)
		if dst == topology.NodeID(s) {
			continue
		}
		ds = append(ds, routing.Demand{Src: topology.NodeID(s), Dst: dst, Rate: 1})
	}
	return ds
}

// Transpose returns the transpose permutation on a 2D cube: (x,y) sends to
// (y,x). It panics on other dimensionalities.
func Transpose(g *topology.Graph) []routing.Demand {
	mustCube(g, "Transpose")
	if g.Dims() != 2 {
		panic("trafficgen: Transpose requires a 2-dimensional cube")
	}
	var ds []routing.Demand
	for s := 0; s < g.Nodes(); s++ {
		c := g.Coord(topology.NodeID(s))
		c[0], c[1] = c[1], c[0]
		dst := g.NodeAt(c)
		if dst == topology.NodeID(s) {
			continue
		}
		ds = append(ds, routing.Demand{Src: topology.NodeID(s), Dst: dst, Rate: 1})
	}
	return ds
}

// Tornado returns the tornado pattern: every node sends to the node
// ⌈k/2⌉-1 hops away in the first dimension — the adversarial case for
// minimal routing on rings.
func Tornado(g *topology.Graph) []routing.Demand {
	mustCube(g, "Tornado")
	k := g.Radix()
	shift := (k+1)/2 - 1
	if shift == 0 {
		shift = 1
	}
	var ds []routing.Demand
	for s := 0; s < g.Nodes(); s++ {
		c := g.Coord(topology.NodeID(s))
		c[0] = (c[0] + shift) % k
		ds = append(ds, routing.Demand{Src: topology.NodeID(s), Dst: g.NodeAt(c), Rate: 1})
	}
	return ds
}

// RandomPermutation returns a random permutation pattern: every node sends
// one unit to a distinct node (derangement not enforced; self-pairs are
// skipped).
func RandomPermutation(g *topology.Graph, rng *rand.Rand) []routing.Demand {
	perm := rng.Perm(g.Nodes())
	var ds []routing.Demand
	for s, d := range perm {
		if s == d {
			continue
		}
		ds = append(ds, routing.Demand{Src: topology.NodeID(s), Dst: topology.NodeID(d), Rate: 1})
	}
	return ds
}

// WorstCase searches for the adversarial permutation for a protocol: the
// structured hard patterns, `trials` random permutations, and a
// hill-climbing adversarial search, returning the pattern with the lowest
// saturation throughput. The paper's Figure 2 row "worst-case" notes the
// worst pattern differs per algorithm.
func WorstCase(tab *routing.Table, p routing.Protocol, trials int, seed int64) ([]routing.Demand, float64) {
	g := tab.Graph()
	rng := rand.New(rand.NewSource(seed))
	candidates := [][]routing.Demand{BitComplement(g), Tornado(g)}
	if g.Dims() == 2 {
		candidates = append(candidates, Transpose(g))
	}
	for i := 0; i < trials; i++ {
		candidates = append(candidates, RandomPermutation(g, rng))
	}
	worst := math.MaxFloat64
	var worstPattern []routing.Demand
	for _, cand := range candidates {
		if len(cand) == 0 {
			continue
		}
		thr := routing.SaturationThroughput(tab, p, cand)
		if thr < worst {
			worst = thr
			worstPattern = cand
		}
	}
	if adv, thr := AdversarialPermutation(tab, p, 40*g.Nodes(), seed); thr > 0 && thr < worst {
		worst = thr
		worstPattern = adv
	}
	return worstPattern, worst
}

// AdversarialPermutation hill-climbs toward the worst-case permutation for
// a routing protocol: starting from a random permutation, it repeatedly
// proposes destination swaps between two sources and keeps those that
// increase the maximum channel load. Minimal protocols have structured
// adversaries that random sampling rarely finds (the Figure 2 worst-case
// row); local search gets much closer.
func AdversarialPermutation(tab *routing.Table, p routing.Protocol, iterations int, seed int64) ([]routing.Demand, float64) {
	g := tab.Graph()
	n := g.Nodes()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)

	loads := make([]float64, g.NumLinks())
	apply := func(src, dst int, sign float64) {
		if src == dst {
			return
		}
		phi := tab.Phi(p, topology.NodeID(src), topology.NodeID(dst))
		for i, lid := range phi.Links {
			loads[lid] += sign * phi.Frac[i]
		}
	}
	maxLoad := func() float64 {
		m := 0.0
		for _, l := range loads {
			if l > m {
				m = l
			}
		}
		return m
	}
	for s, d := range perm {
		apply(s, d, 1)
	}
	best := maxLoad()
	for it := 0; it < iterations; it++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		apply(a, perm[a], -1)
		apply(b, perm[b], -1)
		perm[a], perm[b] = perm[b], perm[a]
		apply(a, perm[a], 1)
		apply(b, perm[b], 1)
		if m := maxLoad(); m >= best {
			best = m
		} else {
			// Revert the swap.
			apply(a, perm[a], -1)
			apply(b, perm[b], -1)
			perm[a], perm[b] = perm[b], perm[a]
			apply(a, perm[a], 1)
			apply(b, perm[b], 1)
		}
	}
	var ds []routing.Demand
	for s, d := range perm {
		if s != d {
			ds = append(ds, routing.Demand{Src: topology.NodeID(s), Dst: topology.NodeID(d), Rate: 1})
		}
	}
	if best == 0 {
		return ds, 0
	}
	return ds, 1 / best
}

// PermutationLoad builds the Figure 18 workload: a fraction L of nodes each
// sources one long-running flow to a randomly chosen node, such that every
// node is the source and the destination of at most one flow.
func PermutationLoad(g *topology.Graph, load float64, rng *rand.Rand) []routing.Demand {
	if load < 0 || load > 1 {
		panic(fmt.Sprintf("trafficgen: load %v out of [0,1]", load))
	}
	n := g.Nodes()
	count := int(math.Round(load * float64(n)))
	srcPerm := rng.Perm(n)[:count]
	dstPerm := rng.Perm(n)
	var ds []routing.Demand
	di := 0
	for _, s := range srcPerm {
		for di < n && dstPerm[di] == s {
			di++
		}
		if di >= n {
			break
		}
		ds = append(ds, routing.Demand{Src: topology.NodeID(s), Dst: topology.NodeID(dstPerm[di]), Rate: 1})
		di++
	}
	return ds
}

func mustCube(g *topology.Graph, what string) {
	if g.Radix() == 0 {
		panic("trafficgen: " + what + " requires a torus/mesh topology")
	}
}
