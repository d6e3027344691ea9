package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

func torus(t testing.TB, k, dims int) *topology.Graph {
	t.Helper()
	g, err := topology.NewTorus(k, dims)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// netFlow computes, for a φ-vector, the net outflow of every vertex.
func netFlow(g *topology.Graph, phi Phi) []float64 {
	net := make([]float64, g.Vertices())
	for i, lid := range phi.Links {
		l := g.Link(lid)
		net[l.From] += phi.Frac[i]
		net[l.To] -= phi.Frac[i]
	}
	return net
}

// Flow conservation: +1 at source, -1 at destination, 0 elsewhere — the
// defining property that makes flow-level rate allocation correct (§3.3).
func TestPhiConservation(t *testing.T) {
	graphs := []*topology.Graph{torus(t, 4, 2), torus(t, 3, 3), torus(t, 8, 2)}
	mesh, err := topology.NewMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, mesh)
	for _, g := range graphs {
		tab := NewTable(g)
		for _, p := range []Protocol{RPS, DOR, VLB, WLB} {
			for trial := 0; trial < 12; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)))
				src := topology.NodeID(rng.Intn(g.Nodes()))
				dst := topology.NodeID(rng.Intn(g.Nodes()))
				if src == dst {
					continue
				}
				phi := tab.Phi(p, src, dst)
				net := netFlow(g, phi)
				for v, f := range net {
					want := 0.0
					switch topology.NodeID(v) {
					case src:
						want = 1
					case dst:
						want = -1
					}
					if math.Abs(f-want) > 1e-9 {
						t.Fatalf("%v %v->%v on %v: net flow at %d = %v, want %v",
							p, src, dst, g.Kind(), v, f, want)
					}
				}
			}
		}
	}
}

// Minimal protocols must only use links on the minimal-route DAG.
func TestPhiMinimalOnlyUsesDAG(t *testing.T) {
	g := torus(t, 4, 3)
	tab := NewTable(g)
	ref := refDistances(g)
	for _, p := range []Protocol{RPS, DOR} {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			src := topology.NodeID(rng.Intn(g.Nodes()))
			dst := topology.NodeID(rng.Intn(g.Nodes()))
			if src == dst {
				continue
			}
			phi := tab.Phi(p, src, dst)
			total := 0.0
			for i, lid := range phi.Links {
				l := g.Link(lid)
				if ref[l.To][dst] != ref[l.From][dst]-1 {
					t.Fatalf("%v: link %v not distance-reducing", p, l)
				}
				total += phi.Frac[i]
			}
			// Total link crossings for a minimal protocol = path length.
			if want := float64(ref[src][dst]); math.Abs(total-want) > 1e-9 {
				t.Fatalf("%v: total crossings = %v, want %v", p, total, want)
			}
		}
	}
}

// rackRing joins eight 4-ary 3-cubes in a ring, each to its successor by
// two cables: the sharded benchmark's 512-node fabric.
func rackRing(t *testing.T) *topology.Graph {
	t.Helper()
	racks := make([]*topology.Graph, 8)
	var bridges []topology.Bridge
	for i := range racks {
		racks[i] = torus(t, 4, 3)
		j := (i + 1) % len(racks)
		bridges = append(bridges,
			topology.Bridge{RackA: i, RackB: j, NodeA: 0, NodeB: 7},
			topology.Bridge{RackA: i, RackB: j, NodeA: 11, NodeB: 4})
	}
	g, err := topology.ConnectRacks(racks, bridges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The order of a φ-vector's links: strictly ascending for the multi-path
// protocols (RPS, VLB, WLB), as sparsify lays them out, and the path in hop
// order for the single-path ones (DOR, ECMP), whose Links the simulator also
// sends acknowledgements along. Either way Frac is aligned with Links, which
// flow conservation checks: a fraction moved to another link breaks it.
func TestPhiLinkOrder(t *testing.T) {
	mesh, err := topology.NewMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*topology.Graph{"torus 4^3": torus(t, 4, 3), "mesh 4^2": mesh, "8-rack ring": rackRing(t)}
	for name, g := range graphs {
		tab := NewTable(g)
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 10; trial++ {
			src, dst := topology.NodeID(rng.Intn(g.Nodes())), topology.NodeID(rng.Intn(g.Nodes()))
			if src == dst {
				continue
			}
			for _, p := range []Protocol{RPS, DOR, ECMP, VLB, WLB} {
				phi := tab.Phi(p, src, dst)
				if len(phi.Frac) != len(phi.Links) {
					t.Fatalf("%s %v %d->%d: %d fractions for %d links", name, p, src, dst, len(phi.Frac), len(phi.Links))
				}
				at := src
				for i, lid := range phi.Links {
					switch {
					case p == DOR || p == ECMP:
						if g.Link(lid).From != at || phi.Frac[i] != 1 {
							t.Fatalf("%s %v %d->%d: link %d of the path is %v (fraction %v), not a hop from %d",
								name, p, src, dst, i, g.Link(lid), phi.Frac[i], at)
						}
						at = g.Link(lid).To
					case i > 0 && phi.Links[i-1] >= lid:
						t.Fatalf("%s %v %d->%d: Links not strictly ascending at %d: %v", name, p, src, dst, i, phi.Links)
					}
				}
				for v, f := range netFlow(g, phi) {
					want := map[topology.NodeID]float64{src: 1, dst: -1}[topology.NodeID(v)]
					if math.Abs(f-want) > 1e-9 {
						t.Fatalf("%s %v %d->%d: net flow at %d = %v, want %v", name, p, src, dst, v, f, want)
					}
				}
			}
		}
	}
}

func TestPhiDORSinglePath(t *testing.T) {
	g := torus(t, 5, 2)
	tab := NewTable(g)
	phi := tab.Phi(DOR, 0, g.NodeAt([]int{2, 1}))
	if len(phi.Links) != 3 {
		t.Fatalf("DOR path length = %d links, want 3", len(phi.Links))
	}
	for _, f := range phi.Frac {
		if f != 1 {
			t.Fatalf("DOR link fraction = %v, want 1", f)
		}
	}
	// Dimension order: X first, then Y.
	nodes, err := tab.WalkPorts(0, mustPorts(t, tab, phi.Links))
	if err != nil {
		t.Fatal(err)
	}
	want := []topology.NodeID{0, g.NodeAt([]int{1, 0}), g.NodeAt([]int{2, 0}), g.NodeAt([]int{2, 1})}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("DOR visits %v, want %v", nodes, want)
		}
	}
}

// DOR must take the short way around the ring.
func TestPhiDORWrapsAround(t *testing.T) {
	g := torus(t, 8, 1)
	tab := NewTable(g)
	phi := tab.Phi(DOR, 0, 6) // short way: 0 -> 7 -> 6
	if len(phi.Links) != 2 {
		t.Fatalf("DOR 0->6 on an 8-ring uses %d links, want 2 (wraparound)", len(phi.Links))
	}
}

// RPS on a 2x2 mesh quadrant splits 50/50 — the Figure 3 example.
func TestPhiRPSFigure3(t *testing.T) {
	g := torus(t, 4, 2)
	tab := NewTable(g)
	src := g.NodeAt([]int{0, 0})
	dst := g.NodeAt([]int{1, 1})
	phi := tab.Phi(RPS, src, dst)
	if len(phi.Links) != 4 {
		t.Fatalf("RPS corner flow touches %d links, want 4", len(phi.Links))
	}
	for i, f := range phi.Frac {
		if math.Abs(f-0.5) > 1e-9 {
			t.Fatalf("link %v fraction = %v, want 0.5 (Figure 3)", phi.Links[i], f)
		}
	}
}

func TestPhiVLBMatchesDirectSum(t *testing.T) {
	g := torus(t, 3, 2) // small enough for the O(N^2) direct computation
	tab := NewTable(g)
	src, dst := topology.NodeID(0), topology.NodeID(4)
	got := tab.Phi(VLB, src, dst)
	// Direct: (1/N) Σ_w [φRPS(s,w) + φRPS(w,d)].
	n := float64(g.Nodes())
	want := make([]float64, g.NumLinks())
	for w := 0; w < g.Nodes(); w++ {
		if topology.NodeID(w) != src {
			p := tab.Phi(RPS, src, topology.NodeID(w))
			for i, lid := range p.Links {
				want[lid] += p.Frac[i] / n
			}
		}
		if topology.NodeID(w) != dst {
			p := tab.Phi(RPS, topology.NodeID(w), dst)
			for i, lid := range p.Links {
				want[lid] += p.Frac[i] / n
			}
		}
	}
	dense := make([]float64, g.NumLinks())
	for i, lid := range got.Links {
		dense[lid] = got.Frac[i]
	}
	for lid := range want {
		if math.Abs(dense[lid]-want[lid]) > 1e-9 {
			t.Fatalf("VLB φ on link %d = %v, want %v", lid, dense[lid], want[lid])
		}
	}
}

// WLB total expected crossings per dimension: 2δ(k-δ)/k.
func TestPhiWLBExpectedHops(t *testing.T) {
	g := torus(t, 8, 2)
	tab := NewTable(g)
	src := g.NodeAt([]int{0, 0})
	dst := g.NodeAt([]int{3, 0}) // δ=3 in X only
	phi := tab.Phi(WLB, src, dst)
	total := 0.0
	for _, f := range phi.Frac {
		total += f
	}
	want := 2.0 * 3 * (8 - 3) / 8 // 3.75
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("WLB expected crossings = %v, want %v", total, want)
	}
}

func TestPhiWLBFallsBackOnMesh(t *testing.T) {
	g, err := topology.NewMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(g)
	wlb := tab.Phi(WLB, 0, 15)
	rps := tab.Phi(RPS, 0, 15)
	if len(wlb.Links) != len(rps.Links) {
		t.Fatalf("WLB on mesh should equal RPS: %d vs %d links", len(wlb.Links), len(rps.Links))
	}
	for i := range wlb.Links {
		if wlb.Links[i] != rps.Links[i] || math.Abs(wlb.Frac[i]-rps.Frac[i]) > 1e-12 {
			t.Fatal("WLB on mesh differs from RPS")
		}
	}
}

func TestPhiCaching(t *testing.T) {
	g := torus(t, 4, 2)
	tab := NewTable(g)
	a := tab.Phi(RPS, 1, 9)
	b := tab.Phi(RPS, 1, 9)
	if &a.Links[0] != &b.Links[0] {
		t.Error("Phi not served from cache on second call")
	}
}

func TestPhiPanics(t *testing.T) {
	tab := NewTable(torus(t, 3, 2))
	assertPanics(t, "src==dst", func() { tab.Phi(RPS, 2, 2) })
	assertPanics(t, "unknown protocol", func() { tab.Phi(Protocol(99), 0, 1) })
	assertPanics(t, "AppendPath ECMP", func() { tab.AppendPath(nil, ECMP, 0, 1, rand.New(rand.NewSource(1))) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// Sampled paths must be valid walks from src to dst, and for minimal
// protocols must have exactly Dist(src,dst) hops.
func TestSamplePathValidity(t *testing.T) {
	g := torus(t, 4, 3)
	tab := NewTable(g)
	ref := refDistances(g)
	rng := rand.New(rand.NewSource(99))
	for _, p := range []Protocol{RPS, DOR, VLB, WLB} {
		for trial := 0; trial < 50; trial++ {
			src := topology.NodeID(rng.Intn(g.Nodes()))
			dst := topology.NodeID(rng.Intn(g.Nodes()))
			if src == dst {
				if got := tab.AppendPath(nil, p, src, dst, rng); got != nil {
					t.Fatalf("%v: nonempty path for src==dst", p)
				}
				continue
			}
			path := tab.AppendPath(nil, p, src, dst, rng)
			at := src
			for _, lid := range path {
				l := g.Link(lid)
				if l.From != at {
					t.Fatalf("%v: discontinuous path at %v", p, l)
				}
				at = l.To
			}
			if at != dst {
				t.Fatalf("%v: path ends at %d, want %d", p, at, dst)
			}
			if (p == RPS || p == DOR) && len(path) != ref[src][dst] {
				t.Fatalf("%v: path length %d, want minimal %d", p, len(path), ref[src][dst])
			}
		}
	}
}

// Monte-Carlo agreement: empirical link usage of sampled paths must
// converge to φ. This ties the data plane to the control plane, the core
// soundness requirement of R2C2's congestion control. The antipode 0→10 has
// minimal paths in both directions of both rings; for the neighbours 0→1,
// VLB's φ is far from the single minimal hop, so a sampler that skips the
// waypoint shows there.
func TestSamplePathMatchesPhi(t *testing.T) {
	g := torus(t, 4, 2)
	tab := NewTable(g)
	rng := rand.New(rand.NewSource(7))
	const samples = 60000
	for _, c := range []struct {
		p        Protocol
		src, dst topology.NodeID
	}{{RPS, 0, 10}, {VLB, 0, 10}, {WLB, 0, 10}, {VLB, 0, 1}} {
		p, src, dst := c.p, c.src, c.dst
		counts := make([]float64, g.NumLinks())
		for i := 0; i < samples; i++ {
			for _, lid := range tab.AppendPath(nil, p, src, dst, rng) {
				counts[lid]++
			}
		}
		phi := tab.Phi(p, src, dst)
		dense := make([]float64, g.NumLinks())
		for i, lid := range phi.Links {
			dense[lid] = phi.Frac[i]
		}
		for lid := range counts {
			got := counts[lid] / samples
			if math.Abs(got-dense[lid]) > 0.02 {
				t.Fatalf("%v: link %d empirical %.4f vs φ %.4f", p, lid, got, dense[lid])
			}
		}
	}
}

func TestECMPPathDeterministicPerFlow(t *testing.T) {
	g := torus(t, 4, 3)
	tab := NewTable(g)
	src, dst := topology.NodeID(0), topology.NodeID(42)
	f1 := wire.MakeFlowID(0, 1)
	a := tab.ECMPPath(src, dst, f1)
	b := tab.ECMPPath(src, dst, f1)
	if len(a) != len(b) {
		t.Fatal("ECMP not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ECMP not deterministic")
		}
	}
	if want := refDistances(g)[src][dst]; len(a) != want {
		t.Fatalf("ECMP path not minimal: %d vs %d", len(a), want)
	}
	// Different flows should spread over different paths (with 512 flows on
	// a diverse topology, at least two distinct paths are overwhelmingly
	// likely).
	distinct := false
	for s := uint16(2); s < 514 && !distinct; s++ {
		c := tab.ECMPPath(src, dst, wire.MakeFlowID(0, s))
		for i := range c {
			if c[i] != a[i] {
				distinct = true
				break
			}
		}
	}
	if !distinct {
		t.Error("512 ECMP flows all hashed onto one path")
	}
	if p := tab.ECMPPath(src, src, f1); p != nil {
		t.Error("ECMP path for src==dst should be nil")
	}
}

func TestPortRouteRoundTrip(t *testing.T) {
	g := torus(t, 4, 3)
	tab := NewTable(g)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		src := topology.NodeID(rng.Intn(g.Nodes()))
		dst := topology.NodeID(rng.Intn(g.Nodes()))
		if src == dst {
			continue
		}
		path := tab.AppendPath(nil, VLB, src, dst, rng)
		if len(path) > wire.MaxRouteHops {
			continue
		}
		ports, err := tab.AppendPortRoute(nil, path)
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := tab.WalkPorts(src, ports)
		if err != nil {
			t.Fatal(err)
		}
		if nodes[len(nodes)-1] != dst {
			t.Fatalf("port walk ends at %d, want %d", nodes[len(nodes)-1], dst)
		}
	}
}

// TestAppendPathAllocFree: the emulator samples a path per data packet into
// a per-sender buffer, so sampling must allocate nothing once the buffer has
// grown, under every protocol a flow can use.
func TestAppendPathAllocFree(t *testing.T) {
	mesh, err := topology.NewMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*topology.Graph{torus(t, 4, 3), mesh} {
		tab := NewTable(g)
		dst := topology.NodeID(g.Nodes() - 1)
		for _, p := range []Protocol{DOR, RPS, VLB, WLB} {
			rng := rand.New(rand.NewSource(1))
			buf := make([]topology.LinkID, 0, 64)
			for i := 0; i < 1000; i++ { // VLB's waypoints fill the per-destination successor cache
				buf = tab.AppendPath(buf[:0], p, 0, dst, rng)
			}
			allocs := testing.AllocsPerRun(100, func() { buf = tab.AppendPath(buf[:0], p, 0, dst, rng) })
			if allocs != 0 {
				t.Errorf("%v on %v: %v allocations per sampled path, want 0", p, g.Kind(), allocs)
			}
		}
	}
}

// TestAppendPortRouteAllocFree: the emulator encodes a port route per data
// packet into a per-sender buffer; once that buffer has grown to a route's
// length, encoding allocates nothing.
func TestAppendPortRouteAllocFree(t *testing.T) {
	g := torus(t, 4, 3)
	tab := NewTable(g)
	path := tab.AppendPath(nil, VLB, 0, 42, rand.New(rand.NewSource(1)))
	buf := make(wire.Route, 0, wire.MaxRouteHops)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = tab.AppendPortRoute(buf[:0], path); err != nil {
			t.Fatal(err)
		}
	})
	if len(buf) != len(path) {
		t.Fatalf("route has %d ports for a %d-hop path", len(buf), len(path))
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per route encoding, want 0", allocs)
	}
}

func TestWalkPortsRejectsBadPort(t *testing.T) {
	g := torus(t, 3, 2)
	tab := NewTable(g)
	if _, err := tab.WalkPorts(0, wire.Route{7}); err == nil {
		t.Error("out-of-range port accepted")
	}
}

func TestPortRouteTooLong(t *testing.T) {
	g := torus(t, 3, 2)
	tab := NewTable(g)
	long := make([]topology.LinkID, wire.MaxRouteHops+1)
	if _, err := tab.AppendPortRoute(nil, long); err != wire.ErrRouteTooLong {
		t.Errorf("err = %v", err)
	}
}

func mustPorts(t *testing.T, tab *Table, path []topology.LinkID) wire.Route {
	t.Helper()
	ports, err := tab.AppendPortRoute(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	return ports
}

func TestProtocolStrings(t *testing.T) {
	if RPS.String() != "RPS" || DOR.String() != "DOR" || VLB.String() != "VLB" ||
		WLB.String() != "WLB" || ECMP.String() != "ECMP" {
		t.Error("protocol names wrong")
	}
	if !RPS.Valid() || Protocol(200).Valid() {
		t.Error("Valid() wrong")
	}
	if Protocol(200).String() == "" {
		t.Error("unknown protocol String empty")
	}
}

// WalkPorts resolves a port route starting at src back into the node
// sequence it visits, validating each hop: the inverse of AppendPortRoute,
// which the forwarding layer (§3.5) applies one hop at a time.
func (t *Table) WalkPorts(src topology.NodeID, route wire.Route) ([]topology.NodeID, error) {
	nodes := []topology.NodeID{src}
	at := src
	for i, port := range route {
		out := t.g.Out(at)
		if int(port) >= len(out) {
			return nil, fmt.Errorf("routing: hop %d: port %d out of range at node %d", i, port, at)
		}
		at = t.g.Link(out[port]).To
		nodes = append(nodes, at)
	}
	return nodes, nil
}
