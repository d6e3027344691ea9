package experiments

import (
	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// Fig2Result is the routing-throughput table of Figure 2: saturation
// throughput (fraction of link capacity injectable per node) of each
// routing algorithm on each traffic pattern of an 8-ary 2-cube.
type Fig2Result struct {
	Patterns  []string
	Protocols []routing.Protocol
	// Throughput[pattern][protocol].
	Throughput [][]float64
}

// Fig2 reproduces the Figure 2 table. worstTrials controls the adversarial
// permutation search for the "worst-case" row.
func Fig2(g *topology.Graph, worstTrials int, seed int64) *Fig2Result {
	tab := routing.NewTable(g)
	protocols := []routing.Protocol{routing.RPS, routing.DOR, routing.VLB, routing.WLB}

	type pattern struct {
		name    string
		demands []routing.Demand
	}
	patterns := []pattern{
		{"nearest-neighbor", trafficgen.NearestNeighbor(g)},
		{"uniform", trafficgen.Uniform(g)},
		{"bit-complement", trafficgen.BitComplement(g)},
	}
	if g.Dims() == 2 {
		patterns = append(patterns, pattern{"transpose", trafficgen.Transpose(g)})
	}
	patterns = append(patterns, pattern{"tornado", trafficgen.Tornado(g)})

	res := &Fig2Result{Protocols: protocols}
	for _, p := range patterns {
		res.Patterns = append(res.Patterns, p.name)
		row := make([]float64, len(protocols))
		for j, proto := range protocols {
			row[j] = routing.SaturationThroughput(tab, proto, p.demands)
		}
		res.Throughput = append(res.Throughput, row)
	}
	// Worst case: per-protocol adversarial search (the worst pattern
	// differs per algorithm, as the paper notes).
	res.Patterns = append(res.Patterns, "worst-case")
	worst := make([]float64, len(protocols))
	for j, proto := range protocols {
		_, thr := trafficgen.WorstCase(tab, proto, worstTrials, seed)
		worst[j] = thr
	}
	res.Throughput = append(res.Throughput, worst)
	return res
}

// Table renders the result.
func (r *Fig2Result) Table() *Table {
	t := &Table{Title: "Figure 2: routing throughput (fraction of capacity)",
		Header: []string{"pattern"}}
	for _, p := range r.Protocols {
		t.Header = append(t.Header, p.String())
	}
	for i, name := range r.Patterns {
		row := []string{name}
		for _, v := range r.Throughput[i] {
			row = append(row, f2(v))
		}
		t.AddRow(row...)
	}
	return t
}
