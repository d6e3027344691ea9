package experiments

import (
	"math/rand"

	"r2c2/internal/genetic"
	"r2c2/internal/routing"
	"r2c2/internal/trafficgen"
)

// Fig18Result compares the adaptive genetic routing selection against the
// single-protocol and random baselines across load levels (Figure 18).
type Fig18Result struct {
	Loads []float64
	// Aggregate throughput (bits/s) per load.
	Adaptive, AllRPS, AllVLB, Random []float64
}

// Fig18 runs the permutation workload of §5.2 ("a fraction L of nodes
// generates a long-running flow each") and optimises the per-flow protocol
// assignment with the §3.4 genetic heuristic. Candidate protocols are RPS
// and VLB, as in the paper.
func Fig18(s Config, loads []float64, gaCfg genetic.Config) *Fig18Result {
	g := s.Torus()
	tab := routing.NewTable(g)
	protocols := []routing.Protocol{routing.RPS, routing.VLB}
	// The shared RNG threads through the loads in order, so workloads and
	// random baselines are drawn sequentially up front; the expensive part
	// — the GA and the allocator-driven fitness evaluations — then runs one
	// load per worker. Each job builds its own fitness closure (the closure
	// carries private allocator scratch and is not concurrent-safe).
	workloads := make([][]routing.Demand, len(loads))
	randomAsn := make([][]uint8, len(loads))
	rng := rand.New(rand.NewSource(s.Seed))
	for i, load := range loads {
		workloads[i] = trafficgen.PermutationLoad(g, load, rng)
		if len(workloads[i]) > 0 {
			randomAsn[i] = genetic.RandomAssignment(len(workloads[i]), len(protocols), rng)
		}
	}
	res := &Fig18Result{Loads: loads,
		Adaptive: make([]float64, len(loads)), AllRPS: make([]float64, len(loads)),
		AllVLB: make([]float64, len(loads)), Random: make([]float64, len(loads))}
	parallelFor(s.Parallel, len(loads), func(i int) {
		flows := workloads[i]
		if len(flows) == 0 {
			return // all-zero row
		}
		fitness := genetic.AggregateFitness(tab, s.LinkGbps*1e9, 0.05, flows, protocols)
		res.AllRPS[i] = fitness(genetic.UniformAssignment(len(flows), 0))
		res.AllVLB[i] = fitness(genetic.UniformAssignment(len(flows), 1))
		res.Random[i] = fitness(randomAsn[i])
		cfg := gaCfg
		cfg.Seed = s.Seed
		best := genetic.Optimize(cfg, len(flows), len(protocols),
			genetic.UniformAssignment(len(flows), 0), fitness)
		res.Adaptive[i] = best.Utility
	})
	return res
}

// Table renders Figure 18 as adaptive throughput normalised against each
// baseline (values >= 1 reproduce the paper's claim).
func (r *Fig18Result) Table() *Table {
	t := &Table{Title: "Figure 18: adaptive routing selection vs baselines (normalised)",
		Header: []string{"load", "vs-RPS", "vs-VLB", "vs-Random"}}
	for i, load := range r.Loads {
		t.AddRow(f3(load),
			f3(safeDiv(r.Adaptive[i], r.AllRPS[i])),
			f3(safeDiv(r.Adaptive[i], r.AllVLB[i])),
			f3(safeDiv(r.Adaptive[i], r.Random[i])))
	}
	return t
}
