// Package genetic implements R2C2's routing-protocol selection heuristic
// (§3.4): a genetic algorithm over per-flow routing-protocol assignments.
//
// Exhaustive search over assignments is combinatorial (2^512 for one
// protocol bit per flow at rack scale) and the utility landscape has many
// local maxima, which defeats hill climbing; the paper settled on a genetic
// algorithm for its few tuning parameters and natural bit-string encoding.
// Genotypes are []uint8 protocol choices per flow, fitness is a
// caller-supplied global utility (aggregate rack throughput by default),
// and evolution proceeds by elitism, crossover and mutation until
// improvement stalls or the generation budget runs out.
package genetic

import (
	"fmt"
	"math/rand"
	"sort"

	"r2c2/internal/routing"
	"r2c2/internal/waterfill"
)

// Config tunes the search. Zero values select the paper's parameters.
type Config struct {
	Population int // genotypes per generation (default 100)
	MaxGens    int // generation budget (default 50)
	StallGens  int // stop after this many generations without improvement (default 10)
	Seed       int64
}

// mutation is the per-gene mutation probability (the paper's 0.01).
const mutation = 0.01

func (c *Config) defaults() {
	if c.Population == 0 {
		c.Population = 100
	}
	if c.MaxGens == 0 {
		c.MaxGens = 50
	}
	if c.StallGens == 0 {
		c.StallGens = 10
	}
}

// Fitness evaluates a candidate assignment (one protocol index per flow,
// indexing into the protocol set passed to Optimize) and returns its global
// utility. Higher is better.
type Fitness func(assignment []uint8) float64

// Result is the outcome of a search.
type Result struct {
	Assignment  []uint8 // best protocol index per flow
	Utility     float64 // its fitness
	Generations int     // generations actually evaluated
}

// Optimize searches for the assignment of one of `choices` protocols to
// each of nFlows flows that maximises fitness. The search population is
// seeded with `current` (the live assignment), with every uniform
// single-protocol assignment (so the result can never lose to a
// network-wide baseline), and with uniform random genotypes.
func Optimize(cfg Config, nFlows int, choices int, current []uint8, fitness Fitness) Result {
	cfg.defaults()
	if nFlows <= 0 || choices < 2 {
		panic(fmt.Sprintf("genetic: degenerate search nFlows=%d choices=%d", nFlows, choices))
	}
	if len(current) != nFlows {
		panic("genetic: current assignment length mismatch")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	elite := max(cfg.Population/10, 1) // genotypes carried over unchanged

	type genotype struct {
		genes []uint8
		fit   float64
	}
	pop := make([]genotype, cfg.Population)
	pop[0] = genotype{genes: append([]uint8(nil), current...)}
	seeded := 1
	for c := 0; c < choices && seeded < cfg.Population; c++ {
		pop[seeded] = genotype{genes: UniformAssignment(nFlows, uint8(c))}
		seeded++
	}
	for i := seeded; i < cfg.Population; i++ {
		g := make([]uint8, nFlows)
		for j := range g {
			g[j] = uint8(rng.Intn(choices))
		}
		pop[i] = genotype{genes: g}
	}

	best := genotype{fit: -1}
	stall := 0
	gens := 0
	for gen := 0; gen < cfg.MaxGens; gen++ {
		gens++
		for i := range pop {
			pop[i].fit = fitness(pop[i].genes)
		}
		sort.SliceStable(pop, func(a, b int) bool { return pop[a].fit > pop[b].fit })
		if pop[0].fit > best.fit {
			best = genotype{genes: append([]uint8(nil), pop[0].genes...), fit: pop[0].fit}
			stall = 0
		} else {
			stall++
			if stall >= cfg.StallGens {
				break
			}
		}
		// Next generation: elites unchanged, rest bred from the top half.
		next := make([]genotype, cfg.Population)
		copy(next, pop[:elite])
		half := cfg.Population / 2
		if half < 2 {
			half = 2
		}
		for i := elite; i < cfg.Population; i++ {
			a := pop[rng.Intn(half)].genes
			b := pop[rng.Intn(half)].genes
			child := make([]uint8, nFlows)
			// Uniform crossover.
			for j := range child {
				if rng.Intn(2) == 0 {
					child[j] = a[j]
				} else {
					child[j] = b[j]
				}
				if rng.Float64() < mutation {
					child[j] = uint8(rng.Intn(choices))
				}
			}
			next[i] = genotype{genes: child}
		}
		pop = next
	}
	return Result{Assignment: best.genes, Utility: best.fit, Generations: gens}
}

// AggregateFitness builds the default fitness of §3.4: the rack's aggregate
// throughput, computed by running the water-filling allocator over the
// long-flow set with each flow's φ determined by the candidate protocol
// assignment.
func AggregateFitness(tab *routing.Table, capacity, headroom float64, flows []routing.Demand, protocols []routing.Protocol) Fitness {
	alloc := waterfill.NewAllocator(waterfill.Config{
		NumLinks: tab.Graph().NumLinks(),
		Capacity: capacity,
		Headroom: headroom,
	})
	specs := make([]waterfill.Flow, len(flows))
	for i := range specs {
		specs[i] = waterfill.Flow{Weight: 1, Demand: waterfill.Unlimited}
	}
	return func(assignment []uint8) float64 {
		for i, d := range flows {
			specs[i].Phi = tab.Phi(protocols[assignment[i]], d.Src, d.Dst)
		}
		return waterfill.Aggregate(alloc.Allocate(specs))
	}
}

// UniformAssignment returns an assignment giving every flow protocol index
// idx — the single-protocol baselines of Figure 18.
func UniformAssignment(nFlows int, idx uint8) []uint8 {
	a := make([]uint8, nFlows)
	for i := range a {
		a[i] = idx
	}
	return a
}

// RandomAssignment returns an assignment choosing uniformly per flow — the
// "Random" baseline of Figure 18.
func RandomAssignment(nFlows, choices int, rng *rand.Rand) []uint8 {
	a := make([]uint8, nFlows)
	for i := range a {
		a[i] = uint8(rng.Intn(choices))
	}
	return a
}
