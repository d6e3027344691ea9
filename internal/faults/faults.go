// Package faults is the deterministic fault-schedule subsystem behind the
// §3.2 failure experiments: a Schedule is an ordered list of timed fault
// events — link down, link repair, node crash, per-link random-drop
// probability — each with its own detection delay (the topology-discovery
// lag between a failure happening physically and the rack switching to the
// degraded fabric).
//
// Schedules are data, not behaviour: the same Schedule drives both the
// packet-level simulator (sim.R2C2.ApplyFaults, on the virtual clock) and
// the emulated rack (emu.Rack.ApplyFaults, on the rack clock), each event
// through Inject, which is what makes the sim-vs-emu fault cross-validation
// possible. They are parseable
// from a compact flag DSL or JSON (Parse), generatable from a seeded RNG
// (Generate), and statically checkable against a topology (Validate).
package faults

import (
	"encoding/json"
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

// Target is a backend's fault entry points: sim.R2C2 with detection delays
// in simulated time, emu.Rack in rack-clock time.
type Target[D any] interface {
	FailLink(a, b topology.NodeID, detect D) error
	RepairLink(a, b topology.NodeID, detect D) error
	FailNode(n topology.NodeID, detect D) error
	SetLinkDropProb(a, b topology.NodeID, p float64) error
}

// Inject hands e to the target's entry point for its kind, with e.Detect
// given in the target's time as detect. The target checks the event
// (core.Faults does, for both backends).
func Inject[D any](t Target[D], e Event, detect D) error {
	switch e.Kind {
	case LinkDown:
		return t.FailLink(e.A, e.B, detect)
	case LinkRepair:
		return t.RepairLink(e.A, e.B, detect)
	case NodeDown:
		return t.FailNode(e.Node, detect)
	case LinkDrop:
		return t.SetLinkDropProb(e.A, e.B, e.DropProb)
	}
	return fmt.Errorf("faults: unknown event kind %d", e.Kind)
}

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

// Validate statically checks the schedule against a topology: endpoints in
// range, every down/drop cable exists, repairs match an earlier un-repaired
// down of the same cable, no double-down, no events on a crashed node's
// cables after the crash, at most one crash per node — and, critically,
// that the rack stays connected under the *union* of every downed cable
// plus every crashed node. Connectivity is monotone in the failed set, so
// if the union keeps the rack connected every intermediate state does too,
// whatever the detection interleaving.
func (s Schedule) Validate(g *topology.Graph) error {
	link := func(a, b topology.NodeID) error {
		if int(a) < 0 || int(a) >= g.Nodes() || int(b) < 0 || int(b) >= g.Nodes() {
			return fmt.Errorf("faults: endpoint out of range [0,%d)", g.Nodes())
		}
		if _, ok := g.LinkBetween(a, b); !ok {
			return fmt.Errorf("faults: no cable between %d and %d", a, b)
		}
		return nil
	}
	type cable struct{ a, b topology.NodeID }
	canon := func(a, b topology.NodeID) cable {
		if a > b {
			a, b = b, a
		}
		return cable{a, b}
	}
	down := map[cable]bool{}
	dead := make([]bool, g.Nodes())
	union := make([]bool, g.NumLinks())
	for _, e := range s.Sorted() {
		if e.At < 0 || e.Detect < 0 {
			return fmt.Errorf("faults: negative time in %v", e)
		}
		switch e.Kind {
		case LinkDown, LinkRepair, LinkDrop:
			if err := link(e.A, e.B); err != nil {
				return fmt.Errorf("%w (event %v)", err, e)
			}
			if dead[e.A] || dead[e.B] {
				return fmt.Errorf("faults: %v touches a cable of a crashed node", e)
			}
		case NodeDown:
			if int(e.Node) < 0 || int(e.Node) >= g.Nodes() {
				return fmt.Errorf("faults: crash node %d out of range [0,%d)", e.Node, g.Nodes())
			}
			if dead[e.Node] {
				return fmt.Errorf("faults: node %d crashed twice", e.Node)
			}
		default:
			return fmt.Errorf("faults: unknown event kind %d", e.Kind)
		}
		switch e.Kind {
		case LinkDown:
			c := canon(e.A, e.B)
			if down[c] {
				return fmt.Errorf("faults: cable %d-%d downed while already down", e.A, e.B)
			}
			down[c] = true
			ab, _ := g.LinkBetween(e.A, e.B)
			ba, _ := g.LinkBetween(e.B, e.A)
			union[ab], union[ba] = true, true
		case LinkRepair:
			c := canon(e.A, e.B)
			if !down[c] {
				return fmt.Errorf("faults: repair of cable %d-%d that is not down", e.A, e.B)
			}
			delete(down, c)
		case NodeDown:
			dead[e.Node] = true
		case LinkDrop:
			if !(e.DropProb >= 0 && e.DropProb <= 1) { // NaN too
				return fmt.Errorf("faults: drop probability %g outside [0,1]", e.DropProb)
			}
		}
	}
	if slices.Contains(union, true) || slices.Contains(dead, true) {
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

// Parse reads a schedule from either the compact flag DSL or JSON
// (dispatched on a leading '{' or '[').
//
// The DSL is semicolon-separated events, each `kind@at:args/last`:
//
//	down@10ms:0-1/2ms     cable 0-1 fails at 10ms, detected 2ms later
//	up@30ms:0-1/2ms       cable 0-1 repaired at 30ms, detected 2ms later
//	crash@20ms:5/2ms      node 5 crashes at 20ms, detected 2ms later
//	drop@0s:2-3/0.01      cable 2-3 drops 1% of packets from t=0
//
// Durations use Go syntax (`150us`, `2ms`, `1s`).
func Parse(s string) (Schedule, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "{") || strings.HasPrefix(s, "[") {
		return ParseJSON([]byte(s))
	}
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

// jsonEvent is the JSON wire form of an Event; times are Go duration
// strings so schedules stay human-writable.
type jsonEvent struct {
	Kind   string  `json:"kind"` // down | up | crash | drop
	At     string  `json:"at"`
	A      *int    `json:"a,omitempty"`
	B      *int    `json:"b,omitempty"`
	Node   *int    `json:"node,omitempty"`
	Detect string  `json:"detect,omitempty"`
	Prob   float64 `json:"prob,omitempty"`
}

type jsonSchedule struct {
	Events []jsonEvent `json:"events"`
}

// ParseJSON reads a schedule from its JSON form:
//
//	{"events":[{"kind":"down","at":"10ms","a":0,"b":1,"detect":"2ms"},
//	           {"kind":"crash","at":"20ms","node":5,"detect":"2ms"},
//	           {"kind":"drop","at":"0s","a":2,"b":3,"prob":0.01}]}
//
// A bare JSON array of events is also accepted.
func ParseJSON(b []byte) (Schedule, error) {
	var js jsonSchedule
	if err := json.Unmarshal(b, &js); err != nil {
		// Bare array form.
		if errArr := json.Unmarshal(b, &js.Events); errArr != nil {
			return Schedule{}, fmt.Errorf("faults: bad JSON schedule: %v", err)
		}
	}
	if len(js.Events) == 0 {
		return Schedule{}, fmt.Errorf("faults: JSON schedule has no events")
	}
	var sched Schedule
	for i, je := range js.Events {
		ev := Event{}
		at, err := time.ParseDuration(je.At)
		if err != nil {
			return Schedule{}, fmt.Errorf("faults: event %d: bad at %q", i, je.At)
		}
		ev.At = at
		switch je.Kind {
		case "down":
			ev.Kind = LinkDown
		case "up":
			ev.Kind = LinkRepair
		case "crash":
			ev.Kind = NodeDown
		case "drop":
			ev.Kind = LinkDrop
		default:
			return Schedule{}, fmt.Errorf("faults: event %d: unknown kind %q", i, je.Kind)
		}
		if ev.Kind == NodeDown {
			if je.Node == nil {
				return Schedule{}, fmt.Errorf("faults: event %d: crash needs node", i)
			}
			var ok bool
			if ev.Node, ok = nodeID(*je.Node); !ok {
				return Schedule{}, fmt.Errorf("faults: event %d: bad node %d", i, *je.Node)
			}
		} else {
			if je.A == nil || je.B == nil {
				return Schedule{}, fmt.Errorf("faults: event %d: %s needs a and b", i, je.Kind)
			}
			var okA, okB bool
			ev.A, okA = nodeID(*je.A)
			ev.B, okB = nodeID(*je.B)
			if !okA || !okB {
				return Schedule{}, fmt.Errorf("faults: event %d: bad endpoints %d-%d", i, *je.A, *je.B)
			}
		}
		if ev.Kind == LinkDrop {
			if !(je.Prob >= 0 && je.Prob <= 1) {
				return Schedule{}, fmt.Errorf("faults: event %d: drop probability %g outside [0,1]", i, je.Prob)
			}
			ev.DropProb = je.Prob
		} else if je.Detect != "" {
			d, err := time.ParseDuration(je.Detect)
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: event %d: bad detect %q", i, je.Detect)
			}
			ev.Detect = d
		}
		sched.Events = append(sched.Events, ev)
	}
	return sched, nil
}
