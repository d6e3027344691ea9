package sim

import (
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
)

// §3.3.2, host-limited flows: a demand-capped flow must not exceed its
// demand, and the bandwidth it cannot use must flow to its competitor.
func TestR2C2HostLimitedFlow(t *testing.T) {
	g := torus(t, 4, 2)
	eng, _, r := newR2C2Net(t, g, R2C2Config{
		Headroom: 0.05, Protocol: routing.DOR, Recompute: 50 * simtime.Microsecond})
	// Both flows share the single DOR path 0->1. Without the demand cap
	// each would get ~4.75 Gbps. The capped flow asks for 1 Gbps.
	capped := r.StartHostLimitedFlow(0, 1, 1<<20, 1, 0, 1e9)
	full := r.StartFlow(0, 1, 8<<20, 1, 0)
	eng.Run(100 * simtime.Millisecond)

	rc, rf := r.Ledger()[capped], r.Ledger()[full]
	if !rc.Done || !rf.Done {
		t.Fatalf("incomplete: capped=%v full=%v", rc.Done, rf.Done)
	}
	if tc := rc.Throughput(); tc > 1.1e9 {
		t.Fatalf("capped flow ran at %.3g, above its 1 Gbps demand", tc)
	}
	// The full flow gets the rest of the 9.5 Gbps effective link (~8.5G)
	// while sharing, so its average must clearly beat the fair half.
	if tf := rf.Throughput(); tf < 6e9 {
		t.Fatalf("network-limited flow got %.3g; unused demand not redistributed", tf)
	}
}
