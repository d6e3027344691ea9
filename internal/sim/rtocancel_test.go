package sim

import (
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
)

// maxPendingDuringReliableRun drives one large reliable flow (every ack
// disarms and re-arms the RTO) and samples the scheduler's pending-event
// count every 20µs while the transfer is in progress.
func maxPendingDuringReliableRun(t *testing.T) int {
	t.Helper()
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	r := NewR2C2(net, routing.NewTable(g), R2C2Config{
		Headroom:  0.05,
		Protocol:  routing.RPS,
		Recompute: 100 * simtime.Microsecond,
		Reliable:  true,
		RTO:       200 * simtime.Microsecond,
	})
	id := r.StartFlow(0, 5, 4<<20, 1, 0)

	maxPending := 0
	var probe func()
	probe = func() {
		if rec := r.Ledger()[id]; rec != nil && rec.Done {
			return
		}
		if p := eng.PendingEvents(); p > maxPending {
			maxPending = p
		}
		eng.After(20*simtime.Microsecond, probe)
	}
	eng.Schedule(0, probe)
	eng.Run(2 * simtime.Second)
	if !r.Ledger()[id].Done {
		t.Fatal("flow incomplete")
	}
	return maxPending
}

// Regression for RTO bloat: a superseded retransmission timer must leave
// the schedule when it is cancelled, so the pending-event count during an
// ack-heavy reliable run stays O(in-flight timers and packets) — NOT
// O(acks within one RTO window). A scheduler that kept one superseded timer
// per ack re-arm alive for a full RTO (200µs ≈ 160 acks at 10 Gbps), as the
// value heap this engine once ran on did, peaks near 190.
func TestCancelledRTOsLeaveSchedule(t *testing.T) {
	// Generous bound: in-flight data+ack packets on an 8-node path plus
	// pacing/recompute events is a few dozen.
	const bound = 60
	peak := maxPendingDuringReliableRun(t)
	t.Logf("max pending = %d", peak)
	if peak > bound {
		t.Fatalf("pending events peaked at %d (> %d): cancelled RTO timers are not leaving the schedule", peak, bound)
	}
}

// PendingEvents returns how many live events are currently scheduled, so a
// test can assert the schedule stays O(in-flight timers) rather than O(acks).
func (e *Engine) PendingEvents() int { return e.wheel.count }
