// Package simtime defines the simulated clock shared by the packet-level
// simulator, the fluid simulator and the workload generators.
//
// Time is measured in integer picoseconds: at 100 Gbps a byte lasts 80 ps,
// so picosecond resolution keeps serialisation arithmetic exact across the
// 10–100 Gbps link speeds rack fabrics use (§2.1) while int64 still spans
// ~106 days of simulated time.
package simtime

import "fmt"

// Time is a point in simulated time, in picoseconds since simulation start.
type Time int64

// Duration units.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest picosecond (truncation would make Seconds/FromSeconds round
// trips lossy for values like 1 ms that are inexact in binary).
// The product is rounded before the half is added, so arm64 cannot fuse
// them into one multiply-add (TestNoFusedMultiplyAdd).
func FromSeconds(s float64) Time {
	if s < 0 {
		return Time(float64(s*float64(Second)) - 0.5)
	}
	return Time(float64(s*float64(Second)) + 0.5)
}

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// TransmitTime returns how long `bytes` take to serialise onto a link of
// `gbps` gigabits per second, rounded up to a whole picosecond.
func TransmitTime(bytes int, gbps float64) Time {
	if bytes <= 0 || gbps <= 0 {
		return 0
	}
	ps := float64(bytes) * 8 / gbps * 1000 // bits / (Gbit/s) = ns; ×1000 = ps
	t := Time(ps)
	if float64(t) < ps {
		t++
	}
	return t
}
