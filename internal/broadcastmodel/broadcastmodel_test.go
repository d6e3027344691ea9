package broadcastmodel

import (
	"math"
	"testing"

	"r2c2/internal/topology"
)

func torus512(t testing.TB) *topology.Graph {
	t.Helper()
	g, err := topology.NewTorus(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// §3.2: "with a 512-node rack, each broadcast results in 8 KB of total
// traffic" (511 × 16 = 8176 bytes).
func TestEventBytes512(t *testing.T) {
	if got := EventBytes(512); got != 511*16 {
		t.Fatalf("EventBytes(512) = %v, want %v", got, 511*16)
	}
}

// §3.2: "a 10 KB flow will, on average, result in 60 KB being transmitted
// on the wire. Thus, the relative overhead of broadcasting the start and
// finish events for such small flows is 26.66%".
func TestFlowOverhead10KB(t *testing.T) {
	g := torus512(t)
	got := FlowOverhead(g, 10e3)
	if math.Abs(got-0.2666) > 0.01 {
		t.Fatalf("10 KB flow overhead = %.4f, want ~0.2666", got)
	}
}

// §5.1: "For 10 MB flows, instead, the overhead would just be 0.026%."
func TestFlowOverhead10MB(t *testing.T) {
	g := torus512(t)
	got := FlowOverhead(g, 10e6)
	if math.Abs(got-0.000266) > 0.0001 {
		t.Fatalf("10 MB flow overhead = %.6f, want ~0.000266", got)
	}
}

// §3.2 / Figure 9: "When 5% of the bytes are carried by small flows, the
// fraction of the network capacity used for broadcasting flow information
// is only 1.3%." (10 KB small flows, 35 MB long flows.)
func TestCapacityFractionAnchor(t *testing.T) {
	g := torus512(t)
	got := CapacityFraction(g, 0.05, 10e3, 35e6)
	if math.Abs(got-0.013) > 0.004 {
		t.Fatalf("capacity fraction at 5%% small bytes = %.4f, want ~0.013", got)
	}
}

// Figure 9: the fraction grows (essentially linearly) with the fraction of
// bytes in small flows.
func TestCapacityFractionMonotone(t *testing.T) {
	g := torus512(t)
	prev := -1.0
	for _, frac := range []float64{0, 0.05, 0.1, 0.2, 0.4, 0.8, 1} {
		got := CapacityFraction(g, frac, 10e3, 35e6)
		if got <= prev {
			t.Fatalf("capacity fraction not increasing at %v: %v <= %v", frac, got, prev)
		}
		prev = got
	}
	if zero := CapacityFraction(g, 0, 10e3, 35e6); zero > 0.001 {
		t.Fatalf("all-long-flow overhead = %v, want ~0", zero)
	}
}

// Figure 9: greater-diameter topologies (3D mesh, 2D torus) have LOWER
// relative broadcast overhead because flows traverse more hops.
func TestGreaterDiameterLowerOverhead(t *testing.T) {
	g3t := torus512(t)
	g3m, err := topology.NewMesh(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2t, err := topology.NewTorus(22, 2) // ~484 nodes, 2D torus
	if err != nil {
		t.Fatal(err)
	}
	f3t := CapacityFraction(g3t, 0.2, 10e3, 35e6)
	f3m := CapacityFraction(g3m, 0.2, 10e3, 35e6)
	f2t := CapacityFraction(g2t, 0.2, 10e3, 35e6)
	if !(f3m < f3t && f2t < f3t) {
		t.Fatalf("expected mesh (%v) and 2D torus (%v) below 3D torus (%v)", f3m, f2t, f3t)
	}
}

// Figure 19: with one concurrent flow per server the centralized design
// generates several times more control traffic, and the gap grows with the
// number of concurrent flows, while the decentralized cost is constant.
func TestControlTrafficShape(t *testing.T) {
	g := torus512(t)
	one := PerEvent(g, 1)
	ten := PerEvent(g, 10)
	if one.Decentralized != ten.Decentralized {
		t.Fatal("decentralized cost should not depend on concurrent flows")
	}
	if one.Ratio() < 3 {
		t.Fatalf("centralized/decentralized at 1 flow/server = %.1f, want > 3 (paper: 6.2x)", one.Ratio())
	}
	if ten.Ratio() < 2*one.Ratio() {
		t.Fatalf("ratio must grow strongly with flows/server: %.1f -> %.1f", one.Ratio(), ten.Ratio())
	}
	if (ControlTraffic{}).Ratio() != 0 {
		t.Fatal("zero traffic ratio should be 0")
	}
}

// Ratio returns centralized/decentralized traffic.
func (c ControlTraffic) Ratio() float64 {
	if c.Decentralized == 0 {
		return 0
	}
	return c.Centralized / c.Decentralized
}
