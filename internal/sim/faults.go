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
			if err := faults.Inject(r, ev, simAt(ev.Detect)); err != nil {
				panic(fmt.Sprintf("sim: fault injection %v failed: %v", ev, err))
			}
		})
	}
}
