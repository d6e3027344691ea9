package examples

import (
	"fmt"
	"math/rand"

	"r2c2/internal/genetic"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// Example_adaptive shows per-flow routing-protocol selection (§3.4), scored
// offline as Figure 18 is. Long-running flows start on minimal routing; the
// genetic heuristic searches for the protocol assignment that maximises
// aggregate rack throughput, beating any single network-wide protocol at
// every load level. Nothing re-routes live flows: §3.4's periodic online
// loop is not reproduced.
func Example_adaptive() {
	g, err := topology.NewTorus(4, 3)
	if err != nil {
		panic(err)
	}
	tab := routing.NewTable(g)
	protocols := []routing.Protocol{routing.RPS, routing.VLB}
	rng := rand.New(rand.NewSource(7))

	fmt.Println("load  all-RPS  all-VLB  adaptive  winner-share (RPS/VLB)")
	for _, load := range []float64{0.125, 0.25, 0.5, 0.75, 1.0} {
		flows := trafficgen.PermutationLoad(g, load, rng)
		fitness := genetic.AggregateFitness(tab, 10e9, 0.05, flows, protocols)

		allRPS := fitness(genetic.UniformAssignment(len(flows), 0))
		allVLB := fitness(genetic.UniformAssignment(len(flows), 1))
		best := genetic.Optimize(
			genetic.Config{Population: 60, MaxGens: 40, Seed: 7},
			len(flows), len(protocols),
			genetic.UniformAssignment(len(flows), 0), // flows start minimal
			fitness,
		)

		nRPS := 0
		for _, gene := range best.Assignment {
			if gene == 0 {
				nRPS++
			}
		}
		fmt.Printf("%.3f  %7.1f  %7.1f  %8.1f  %d/%d\n",
			load, allRPS/1e9, allVLB/1e9, best.Utility/1e9,
			nRPS, len(best.Assignment)-nRPS)
	}
	fmt.Println("\n(throughputs in Gbps; adaptive >= max(all-RPS, all-VLB) at every load,")
	fmt.Println(" and the protocol mix shifts from VLB at low load to RPS at high load)")
	// Output:
	// load  all-RPS  all-VLB  adaptive  winner-share (RPS/VLB)
	// 0.125    126.6    180.1     180.1  0/8
	// 0.250    253.0    285.9     315.8  6/10
	// 0.500    390.9    408.6     435.8  24/8
	// 0.750    479.0    510.4     510.4  0/48
	// 1.000    590.6    600.3     600.3  0/63
	//
	// (throughputs in Gbps; adaptive >= max(all-RPS, all-VLB) at every load,
	//  and the protocol mix shifts from VLB at low load to RPS at high load)
}
