package emu

import (
	"testing"
	"time"

	"r2c2/internal/core"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// §3.3.2 host-limited flows, live: an application producing at 20 Mbps
// shares a DOR path with an unconstrained bulk flow. The demand estimator
// must discover ~20 Mbps from the sender-side queue, broadcast it, and the
// allocator must hand the freed bandwidth to the bulk flow.
func TestEmuDemandEstimation(t *testing.T) {
	g, err := topology.NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		Graph:     g,
		LinkMbps:  200,
		Headroom:  0.05,
		Recompute: time.Millisecond,
		Protocol:  routing.DOR, // single shared path 0 -> 1
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	const appRate = 20e6 // bits/s
	limited, err := r.StartHostLimitedFlow(0, 1, 1<<20, 1, 0, appRate)
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := r.StartFlow(0, 1, 8<<20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	// While both run, some remote node must eventually see a finite demand
	// near the app rate.
	sawDemand := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		d, ok := r.FlowDemandAt(10, limited.Info().ID)
		if ok && d != core.UnlimitedDemand {
			if float64(d)*1e3 < appRate*3 && float64(d)*1e3 > appRate/3 {
				sawDemand = true
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawDemand {
		t.Fatalf("no remote view ever saw a demand near %.0f bits/s (last local estimate: %d Kbps)",
			appRate, demand(r.nodes[limited.Info().Src], limited))
	}

	if err := bulk.Wait(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := limited.Wait(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The limited flow must run near its app rate, never far above.
	lt := limited.Throughput()
	if lt > appRate*1.5 {
		t.Fatalf("limited flow ran at %.3g, far above its %.0f app rate", lt, appRate)
	}
	// The bulk flow must collect most of the residual link (190 Mbps eff −
	// ~20 Mbps ≈ 170 Mbps; wall-clock slack allows a wide band, but it must
	// clearly beat the 95 Mbps it would get under demand-blind fairness).
	if bt := bulk.Throughput(); bt < 110e6 {
		t.Fatalf("bulk flow got %.3g; demand-aware allocation should exceed 110 Mbps", bt)
	}
}

// TestFlowDemandRoundTrip checks the emu side of the demand encoding:
// Demand() mirrors the last core.KbpsDemand broadcast for host-limited
// flows, reports the UnlimitedDemand sentinel for network-limited ones,
// and decoding back through FlowInfo.DemandBits loses at most one Kbps
// quantum.
func TestFlowDemandRoundTrip(t *testing.T) {
	n := &emuNode{vis: core.NewVisibility(1)}
	n.Node = core.NewNode[*Flow](0, &n.vis, 0, 1)
	flow := func(seq uint16) *Flow {
		f := &Flow{info: core.FlowInfo{ID: wire.MakeFlowID(0, seq), Dst: 1, Weight: 1, DemandKbps: core.UnlimitedDemand}}
		n.Start(f)
		return f
	}
	networkLimited := flow(0)
	if d := demand(n, networkLimited); d != core.UnlimitedDemand {
		t.Fatalf("network-limited demand = %d, want UnlimitedDemand", d)
	}
	hostLimited := flow(1)
	for _, bits := range []float64{0, 999, 1e3, 20e6, 4.2e12, 1e15} {
		k := core.KbpsDemand(bits)
		n.SetDemand(hostLimited, k)
		if got := demand(n, hostLimited); got != k {
			t.Fatalf("demand = %d after broadcasting %d", got, k)
		}
		info := core.FlowInfo{DemandKbps: demand(n, hostLimited)}
		back := info.DemandBits()
		if back > bits {
			t.Fatalf("decode %g exceeds encoded input %g", back, bits)
		}
		if k != core.UnlimitedDemand-1 && bits-back >= 1e3 {
			t.Fatalf("round-trip of %g lost %g bits/s, more than one Kbps quantum", bits, bits-back)
		}
	}
}

// demand returns the last demand in Kbps that flow f's source n broadcast
// (core.UnlimitedDemand if network-limited).
func demand(n *emuNode, f *Flow) uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return f.info.DemandKbps
}

// TestDemandUpdateThreshold holds when a sender re-announces its Eq. 1
// estimate: past a 15 % change, or on a move to or from unlimited.
func TestDemandUpdateThreshold(t *testing.T) {
	for _, c := range []struct {
		old, new uint32
		want     bool
	}{
		{1000, 1000, false},
		{1000, 1150, false},
		{1000, 1151, true},
		{1150, 1000, false},
		{1151, 1000, true},
		{1000, core.UnlimitedDemand, true},
		{core.UnlimitedDemand, 1000, true},
	} {
		if got := diverges(c.old, c.new); got != c.want {
			t.Errorf("diverges(%d, %d) = %v, want %v", c.old, c.new, got, c.want)
		}
	}
}
