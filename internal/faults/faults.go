// Package faults is the deterministic fault-schedule subsystem behind the
// §3.2 failure experiments: a Schedule is an ordered list of timed fault
// events — link down, link repair, node crash, per-link random-drop
// probability — each with its own detection delay (the topology-discovery
// lag between a failure happening physically and the rack switching to the
// degraded fabric).
//
// Schedules are data, not behaviour: the same Schedule drives both the
// packet-level simulator (sim.R2C2.ApplyFaults, on the virtual clock) and
// the emulated rack (emu.Rack.ApplyFaults, on the rack clock). State is
// the one rulebook: its Apply judges every event, for Validate and for
// each backend's InjectFault, which is what makes the sim-vs-emu fault
// cross-validation possible. Schedules are parseable from a compact flag
// DSL (Parse), generatable from a seeded RNG (Generate), and statically
// checkable against a topology (Validate).
package faults

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"r2c2/internal/topology"
)

// Kind enumerates fault event types.
type Kind uint8

// The fault event types.
const (
	// LinkDown fails both directions of the cable between A and B at At;
	// the fabric is rebuilt Detect later.
	LinkDown Kind = iota
	// LinkRepair brings the cable between A and B back at At; the fabric
	// re-expands Detect later.
	LinkRepair
	// NodeDown crashes node Node at At: all its ports go dark instantly,
	// survivors reroute and purge its flows Detect later.
	NodeDown
	// LinkDrop sets the random-drop probability of both directions of the
	// cable between A and B to DropProb at At (0 restores a clean link).
	// Drop probability changes are local to the link: they have no
	// detection delay and trigger no reroute.
	LinkDrop
)

// String returns the DSL keyword for the kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "down"
	case LinkRepair:
		return "up"
	case NodeDown:
		return "crash"
	case LinkDrop:
		return "drop"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one timed fault.
type Event struct {
	At   time.Duration // offset from the start of the run
	Kind Kind
	A, B topology.NodeID // cable endpoints (LinkDown, LinkRepair, LinkDrop)
	Node topology.NodeID // crashed node (NodeDown)
	// Detect is the §3.2 detection delay: the fabric is rebuilt At+Detect.
	Detect time.Duration
	// DropProb is the per-packet drop probability (LinkDrop only).
	DropProb float64
}

// String renders the event in the compact DSL.
func (e Event) String() string {
	switch e.Kind {
	case NodeDown:
		return fmt.Sprintf("crash@%v:%d/%v", e.At, e.Node, e.Detect)
	case LinkDrop:
		return fmt.Sprintf("drop@%v:%d-%d/%g", e.At, e.A, e.B, e.DropProb)
	default:
		return fmt.Sprintf("%v@%v:%d-%d/%v", e.Kind, e.At, e.A, e.B, e.Detect)
	}
}

// fires reports whether the event triggers a fabric rebuild Detect later
// (LinkDrop events are local to the link and never reroute).
func (e Event) fires() bool { return e.Kind != LinkDrop }

// Schedule is an ordered fault schedule. The zero value is the empty
// schedule (no faults).
type Schedule struct {
	Events []Event
}

// Len reports the number of events.
func (s Schedule) Len() int { return len(s.Events) }

// Sorted returns the events ordered by injection time, ties broken by list
// position. Both backends inject in exactly this order, which is what makes
// a schedule's effect reproducible.
func (s Schedule) Sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String renders the schedule in the compact DSL (parseable by Parse).
func (s Schedule) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// Validate statically checks the schedule against a topology: it replays
// the events in injection order through a fresh State, which refuses any
// the backends would, and checks that no time is negative and that the
// rack stays connected under the *union* of every downed cable plus every
// crashed node. Connectivity is monotone in the failed set, so if the
// union keeps the rack connected every intermediate state does too,
// whatever the detection interleaving.
func (s Schedule) Validate(g *topology.Graph) error {
	st := NewState(g)
	union := make([]bool, g.NumLinks())
	for _, e := range s.Sorted() {
		if e.At < 0 || e.Detect < 0 {
			return fmt.Errorf("faults: negative time in %v", e)
		}
		lids, err := st.Apply(e)
		if err != nil {
			return err
		}
		if e.Kind == LinkDown {
			for _, lid := range lids {
				union[lid] = true
			}
		}
	}
	if _, dead := st.Failed(); slices.Contains(union, true) || slices.Contains(dead, true) {
		if _, _, err := g.WithoutLinksAndNodes(union, dead); err != nil {
			return fmt.Errorf("faults: schedule union partitions the rack: %w", err)
		}
	}
	return nil
}

// Waves returns the number of fabric rebuilds (reroutes) the schedule
// causes on a backend that recomputes the degraded fabric at
// detection-fire time and skips fires already covered by a newer rebuild:
// a fire reroutes only if at least one fault was injected since the last
// rebuild. This is exactly sim.R2C2.FailureReroutes (and emu.Rack.Reroutes)
// after replaying the schedule, so tests assert equality against it.
func (s Schedule) Waves() int {
	var fires []time.Duration
	injectAt := []time.Duration{}
	for _, e := range s.Sorted() {
		if !e.fires() {
			continue
		}
		injectAt = append(injectAt, e.At)
		fires = append(fires, e.At+e.Detect)
	}
	// Fires in detection order.
	slices.Sort(fires)
	waves, covered := 0, 0
	for _, f := range fires {
		// At fire time every injection with At <= f has happened
		// (injections are scheduled before the fires they race with).
		injected := 0
		for i, at := range injectAt {
			if at <= f {
				injected = i + 1
			}
		}
		if injected > covered {
			waves++
			covered = injected
		}
	}
	return waves
}

// DeadNodes returns the nodes the schedule crashes, as a mask indexed by
// NodeID over a rack of n nodes.
func (s Schedule) DeadNodes(n int) []bool {
	dead := make([]bool, n)
	for _, e := range s.Events {
		if e.Kind == NodeDown && int(e.Node) >= 0 && int(e.Node) < n {
			dead[e.Node] = true
		}
	}
	return dead
}

// Horizon returns the time by which every event has both happened and been
// detected — the earliest instant the fabric can be back in steady state.
func (s Schedule) Horizon() time.Duration {
	var h time.Duration
	for _, e := range s.Events {
		if t := e.At + e.Detect; t > h {
			h = t
		}
	}
	return h
}

// Parse reads a schedule from the compact flag DSL: semicolon-separated
// events, each `kind@at:args/last`:
//
//	down@10ms:0-1/2ms     cable 0-1 fails at 10ms, detected 2ms later
//	up@30ms:0-1/2ms       cable 0-1 repaired at 30ms, detected 2ms later
//	crash@20ms:5/2ms      node 5 crashes at 20ms, detected 2ms later
//	drop@0s:2-3/0.01      cable 2-3 drops 1% of packets from t=0
//
// Durations use Go syntax (`150us`, `2ms`, `1s`).
func Parse(s string) (Schedule, error) {
	s = strings.TrimSpace(s)
	var sched Schedule
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return Schedule{}, err
		}
		sched.Events = append(sched.Events, ev)
	}
	if len(sched.Events) == 0 {
		return Schedule{}, fmt.Errorf("faults: empty schedule %q", s)
	}
	return sched, nil
}

func parseEvent(s string) (Event, error) {
	kindAt, spec, ok := cut(s, ":")
	if !ok {
		return Event{}, fmt.Errorf("faults: event %q: want kind@at:spec", s)
	}
	kindStr, atStr, ok := cut(kindAt, "@")
	if !ok {
		return Event{}, fmt.Errorf("faults: event %q: want kind@at:spec", s)
	}
	at, err := time.ParseDuration(atStr)
	if err != nil {
		return Event{}, fmt.Errorf("faults: event %q: bad time %q: %v", s, atStr, err)
	}
	target, last, ok := cut(spec, "/")
	if !ok {
		return Event{}, fmt.Errorf("faults: event %q: want target/detect (or target/prob for drop)", s)
	}
	ev := Event{At: at}
	switch kindStr {
	case "down":
		ev.Kind = LinkDown
	case "up":
		ev.Kind = LinkRepair
	case "crash":
		ev.Kind = NodeDown
	case "drop":
		ev.Kind = LinkDrop
	default:
		return Event{}, fmt.Errorf("faults: event %q: unknown kind %q (want down|up|crash|drop)", s, kindStr)
	}
	if ev.Kind == NodeDown {
		node, err := strconv.Atoi(target)
		if ev.Node, ok = nodeID(node); err != nil || !ok {
			return Event{}, fmt.Errorf("faults: event %q: bad node %q", s, target)
		}
	} else {
		aStr, bStr, ok := cut(target, "-")
		if !ok {
			return Event{}, fmt.Errorf("faults: event %q: want a-b endpoints", s)
		}
		a, err1 := strconv.Atoi(aStr)
		b, err2 := strconv.Atoi(bStr)
		var okA, okB bool
		ev.A, okA = nodeID(a)
		ev.B, okB = nodeID(b)
		if err1 != nil || err2 != nil || !okA || !okB {
			return Event{}, fmt.Errorf("faults: event %q: bad endpoints %q", s, target)
		}
	}
	if ev.Kind == LinkDrop {
		p, err := strconv.ParseFloat(last, 64)
		if err != nil || !(p >= 0 && p <= 1) { // NaN and ±Inf too
			return Event{}, fmt.Errorf("faults: event %q: bad probability %q", s, last)
		}
		ev.DropProb = p
	} else {
		d, err := time.ParseDuration(last)
		if err != nil {
			return Event{}, fmt.Errorf("faults: event %q: bad detection delay %q", s, last)
		}
		ev.Detect = d
	}
	return ev, nil
}

// nodeID converts a parsed node number; ok is false for a negative one,
// which the DSL's a-b form cannot render, and for one a NodeID cannot hold.
func nodeID(v int) (id topology.NodeID, ok bool) {
	return topology.NodeID(v), v >= 0 && v <= math.MaxInt32
}

func cut(s, sep string) (before, after string, found bool) {
	i := strings.Index(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}
