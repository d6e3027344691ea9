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
			det := simtime.Time(ev.Detect.Nanoseconds()) * simtime.Nanosecond
			var err error
			switch ev.Kind {
			case faults.LinkDown:
				err = r.FailLink(ev.A, ev.B, det)
			case faults.LinkRepair:
				err = r.RepairLink(ev.A, ev.B, det)
			case faults.NodeDown:
				err = r.FailNode(ev.Node, det)
			case faults.LinkDrop:
				ab, okAB := r.Net.G.LinkBetween(ev.A, ev.B)
				ba, okBA := r.Net.G.LinkBetween(ev.B, ev.A)
				if !okAB || !okBA {
					err = fmt.Errorf("sim: no link between %d and %d", ev.A, ev.B)
					break
				}
				r.Net.SetLinkDropProb(ab, ev.DropProb)
				r.Net.SetLinkDropProb(ba, ev.DropProb)
			}
			if err != nil {
				panic(fmt.Sprintf("sim: fault injection %v failed: %v", ev, err))
			}
		})
	}
}
