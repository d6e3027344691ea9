//go:build debug

package sim

import (
	"strings"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
)

func TestAssertInvariantPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("assertInvariant(false) did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "rate 7") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	assertInvariant(true, "must not fire")
	assertInvariant(false, "rate %d", 7)
}

// TestPacketDoubleFreePanics checks the pool's use-after-free tripwire:
// releasing a packet that is already on the free list must panic under the
// debug build instead of silently corrupting the pool.
func TestPacketDoubleFreePanics(t *testing.T) {
	g := torus(t, 3, 3)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	pkt := net.newPacket()
	net.freePacket(pkt)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double-free did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "double-free") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	net.freePacket(pkt)
}

// TestInvariantsHoldOnSmallRun drives a complete R2C2 simulation with the
// debug assertions armed: any stale event pop or over-capacity pacing rate
// panics the test.
func TestInvariantsHoldOnSmallRun(t *testing.T) {
	if !invariantsEnabled {
		t.Fatal("debug build without invariants enabled")
	}
	g := torus(t, 3, 3)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	r := NewR2C2(net, routing.NewTable(g), R2C2Config{Headroom: 0.05, Protocol: routing.RPS})
	r.StartFlow(0, 13, 2<<20, 1, 0)
	r.StartFlow(5, 20, 1<<20, 2, 0)
	r.StartFlow(7, 3, 1<<20, 1, 0)
	eng.Run(200 * simtime.Millisecond)
	for id, rec := range r.Ledger() {
		if !rec.Done {
			t.Fatalf("flow %v incomplete under debug build: %d/%d", id, rec.BytesRcvd, rec.SizeBytes)
		}
	}
}
