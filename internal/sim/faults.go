package sim

import (
	"fmt"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/simtime"
)

// simAt converts a schedule offset to simulated time (ns → ps).
func simAt(d time.Duration) simtime.Time {
	return simtime.Time(d.Nanoseconds()) * simtime.Nanosecond
}

// ApplyFaults schedules every event of a fault schedule onto the engine,
// to be injected into the transport at its At time. The schedule must be
// Validate-clean for the run's graph; injection errors are therefore bugs
// and panic. Call before Engine.Run, like flow arrivals.
func (r *R2C2) ApplyFaults(sched faults.Schedule) {
	for _, e := range sched.Sorted() {
		ev := e
		r.Net.Eng.Schedule(simAt(ev.At), func() {
			if r.sh != nil {
				// Every shard runs the whole schedule so each sees the same
				// degraded fabric; tick the control counter so merged event
				// totals subtract the duplicates.
				r.sh.ctrl++
			}
			if err := r.InjectFault(ev); err != nil {
				panic(fmt.Sprintf("sim: fault injection %v failed: %v", ev, err))
			}
		})
	}
}

// InjectFault injects one fault event now, on the virtual clock (§3.2). A
// crashed node's senders stop at once; the links the failure state changed
// lose every queued packet, come back or start dropping at random; and
// e.Detect later, the topology-discovery delay, every node switches to the
// fabric of the failure state then current and re-announces its flows,
// resynchronising views that missed events. A drop probability change is
// local to its cable and arms no detection. It errors where
// faults.State.Apply does, and then changes nothing.
func (r *R2C2) InjectFault(e faults.Event) error {
	lids, err := r.Faults.Apply(e)
	if err != nil {
		return err
	}
	port := r.Net.FailLink
	switch e.Kind {
	case faults.LinkDrop:
		for _, lid := range lids {
			r.Net.SetLinkDropProb(lid, e.DropProb)
		}
		return nil
	case faults.LinkRepair:
		port = r.Net.RepairLink
	case faults.NodeDown:
		// Armed pacing events find the senders gone. In a sharded run only
		// the node's owner shard holds them.
		if n := r.nodes[e.Node]; n != nil {
			_, dead := r.Faults.Failed()
			for _, sf := range n.Abandon(dead) {
				r.retire(sf)
			}
		}
	}
	for _, lid := range lids {
		port(lid)
	}
	r.Net.Eng.After(simAt(e.Detect), r.reroute)
	return nil
}
