package experiments

import (
	"r2c2/internal/broadcastmodel"
	"r2c2/internal/topology"
)

// Fig9Result holds the broadcast-overhead curves of Figure 9: fraction of
// network capacity used by broadcasts versus the fraction of bytes carried
// by small flows, for the three topologies the paper plots.
type Fig9Result struct {
	SmallByteFracs []float64
	Topologies     []string
	// Fraction[topology][point].
	Fraction [][]float64
}

// Fig9 evaluates the analytic model with the paper's 10 KB small flows and
// 35 MB long flows. The node counts follow §5.1's projection target
// (512-node 3D torus) with same-order meshes/2D tori.
func Fig9(fracs []float64) *Fig9Result {
	mesh3d, err := topology.NewMesh(8, 3)
	if err != nil {
		panic(err)
	}
	torus3d, torus2d := PaperScale().Torus(), Config{K: 22, Dims: 2}.Torus()
	res := &Fig9Result{
		SmallByteFracs: fracs,
		Topologies:     []string{"3D-torus-512", "3D-mesh-512", "2D-torus-484"},
	}
	for _, g := range []*topology.Graph{torus3d, mesh3d, torus2d} {
		row := make([]float64, len(fracs))
		for i, f := range fracs {
			row[i] = broadcastmodel.CapacityFraction(g, f, 10e3, 35e6)
		}
		res.Fraction = append(res.Fraction, row)
	}
	return res
}

// Table renders Figure 9.
func (r *Fig9Result) Table() *Table {
	t := &Table{Title: "Figure 9: network capacity used for broadcast",
		Header: []string{"small-byte-frac"}}
	t.Header = append(t.Header, r.Topologies...)
	for i, f := range r.SmallByteFracs {
		row := []string{f2(f)}
		for j := range r.Topologies {
			row = append(row, pct(r.Fraction[j][i]))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig19Result holds the control-traffic comparison of Figure 19.
type Fig19Result struct {
	FlowsPerServer []int
	Decentralized  []float64 // bytes per flow event
	Centralized    []float64
}

// Fig19 evaluates the model on the given topology.
func Fig19(g *topology.Graph, flowsPerServer []int) *Fig19Result {
	res := &Fig19Result{FlowsPerServer: flowsPerServer}
	for _, f := range flowsPerServer {
		ct := broadcastmodel.PerEvent(g, f)
		res.Decentralized = append(res.Decentralized, ct.Decentralized)
		res.Centralized = append(res.Centralized, ct.Centralized)
	}
	return res
}

// Table renders Figure 19.
func (r *Fig19Result) Table() *Table {
	t := &Table{Title: "Figure 19: control traffic per flow event (bytes)",
		Header: []string{"flows/server", "decentralized", "centralized", "ratio"}}
	for i, f := range r.FlowsPerServer {
		ratio := safeDiv(r.Centralized[i], r.Decentralized[i])
		t.AddRow(f2(float64(f)), f2(r.Decentralized[i]), f2(r.Centralized[i]), f2(ratio))
	}
	return t
}
