package emu

import "time"

// This file is the emulator's only wall-clock chokepoint. Package emu runs
// in real time by design (§4.1: it replaces the Maze RDMA testbed, which
// paces real packets on real links), so it cannot be fully virtual-time —
// but every wall-clock read still goes through rackClock so that:
//
//   - measurement results (Flow.started / Flow.finished, hence FCT and
//     Throughput) carry rack-relative monotonic nanoseconds, never absolute
//     host timestamps: a wall-clock step (NTP slew, suspend/resume) cannot
//     produce a negative or wildly wrong FCT, and results from different
//     racks or runs are not accidentally comparable as absolute times;
//   - the functions below are the complete inventory of real-time use:
//     the no-wallclock check (TestSourceRules in the module root's
//     source_test.go) allows the host clock in internal/emu only in this
//     file.
//
// Everything outside this file uses rackClock (or Flow fields derived from
// it).

// rackClock anchors one rack's timeline to a private epoch captured at
// New. now() feeds pacing-schedule arithmetic; nowNs() is the only
// timestamp representation allowed to reach measurement results.
type rackClock struct {
	epoch time.Time
}

func newRackClock() rackClock {
	return rackClock{epoch: time.Now()}
}

// nowNs returns nanoseconds since the rack epoch. The subtraction uses
// Go's monotonic clock reading, so the result is immune to wall-clock
// steps and is what Flow.started / Flow.finished store.
func (c rackClock) nowNs() int64 {
	return int64(time.Since(c.epoch))
}

// now returns the host time for pacing schedules (link and sender token
// buckets sleep against it). Schedules never reach results; use nowNs for
// anything measured.
func (c rackClock) now() time.Time {
	return time.Now()
}

// after is time.After for the emulator's bounded pacing and backoff
// sleeps, all of which race a ctx.Done() case: the channel of a timer no
// one stops, which is how time.After builds it.
func (c rackClock) after(d time.Duration) <-chan time.Time {
	return hostTimer(d).C
}

// newTicker drives the periodic rate recomputation (the host-time
// analogue of the paper's ρ interval).
func (c rackClock) newTicker(d time.Duration) *time.Ticker {
	return time.NewTicker(d)
}

// hostTimer is the one clock primitive not tied to a rack, and the
// chokepoint's only timer: after takes its channel, and Flow.Wait offers
// its caller a host-time timeout on a flow that may belong to an
// already-stopped rack. It returns a Timer (not a bare channel) so the
// caller can Stop it when the flow wins the race — time.After would leak
// the timer until it fires.
func hostTimer(d time.Duration) *time.Timer {
	return time.NewTimer(d)
}
