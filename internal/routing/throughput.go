package routing

import "r2c2/internal/topology"

// Demand is one entry of a traffic pattern: src injects Rate units of
// traffic toward dst (Rate is relative; 1 = full injection bandwidth of a
// node).
type Demand struct {
	Src, Dst topology.NodeID
	Rate     float64
}

// ChannelLoads returns the per-link load (in node-injection-bandwidth
// units) induced by routing every demand with protocol p: the standard
// channel-load analysis of interconnection networks (Dally & Towles [20]),
// which Figure 2 of the paper tabulates.
func ChannelLoads(t *Table, p Protocol, demands []Demand) []float64 {
	loads := make([]float64, t.Graph().NumLinks())
	for _, d := range demands {
		if d.Src == d.Dst || d.Rate == 0 {
			continue
		}
		phi := t.Phi(p, d.Src, d.Dst)
		for i, lid := range phi.Links {
			// Rounding the product first keeps arm64 from fusing it into a
			// multiply-add (TestNoFusedMultiplyAdd).
			loads[lid] += float64(d.Rate * phi.Frac[i])
		}
	}
	return loads
}

// SaturationThroughput returns the saturation throughput of protocol p on
// the given pattern: the injection rate per node, as a fraction of link
// capacity, at which the most loaded channel saturates. This is the
// quantity Figure 2 reports (e.g. uniform/minimal on an 8-ary 2-cube = 1,
// VLB = 0.5 on every pattern).
func SaturationThroughput(t *Table, p Protocol, demands []Demand) float64 {
	loads := ChannelLoads(t, p, demands)
	maxLoad := 0.0
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad == 0 {
		return 0
	}
	return 1 / maxLoad
}
