// Package sim is a packet-level discrete-event simulator for rack-scale
// network fabrics, the equivalent of the (cross-validated) simulator used
// for every scaling experiment in §5.2 of the paper.
//
// It models: per-output-port FIFO queues with drop-tail limits,
// store-and-forward links with serialisation and propagation delay, source
// routing, R2C2's full control plane (flow-event broadcasts over broadcast
// trees, periodic local rate recomputation, token-bucket pacing at
// senders), and the two baselines of §5.2 — a NewReno-style TCP over
// ECMP single paths, and the idealised per-flow-queue (PFQ) back-pressure
// fabric.
package sim

import (
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
)

// eventKind discriminates the typed event records of the hot path. The
// per-packet events (arrival, port wake-up, pacing, timeouts) carry their
// receiver in the record itself and are dispatched through a switch, so
// scheduling them allocates nothing; rare control-plane events
// (recomputation ticks, failure detection, drop notifications) are evFunc
// closures.
type eventKind uint8

const (
	evFunc   eventKind = iota // generic callback (cold path)
	evTxDone                  // a port's serialisation ended with packets queued behind it
	evArrive                  // a packet reaches node after serialisation + propagation
	evSend                    // R2C2 token-bucket pacing: transmit the flow's next packet
	evRTO                     // R2C2 reliability retransmission timeout
	evTCPRTO                  // TCP retransmission timeout
)

// event is one scheduled typed record, 48 bytes: it is written in place
// into the wheel's arena node by arm and copied out once, at pop. Dispatch
// order is ascending (at, emit, tie, seq).
type event struct {
	at simtime.Time

	// emit is the simulated time the event was emitted at: the engine clock
	// when it was scheduled, except that an arrival is stamped with the end
	// of its serialisation and a port wake-up with the start of it — the
	// instants the two would have been scheduled at, had the transmission
	// been stepped through event by event. Stamps travel verbatim through
	// the sharded engine's boundary queues, so equal timestamps order the
	// same way in every shard as in a serial run.
	emit simtime.Time

	seq uint64 // schedule order: the last tie-break, and the cancel handle's check

	node topology.NodeID // evArrive: receiving node

	// tk packs the tie key (upper 24 bits) over the kind (low 8). The tie
	// key is link+1 on events emitted by a link — arrivals, and the
	// reflood a dropped broadcast triggers — and 0 on all others: what
	// orders two events that tie on (at, emit) must not be seq when either
	// may have crossed a shard boundary, because ingest assigns seq anew.
	// A link serialises, so it never ties with itself.
	tk uint32

	// recv is the kind's receiver: *Packet (evArrive), *port (evTxDone),
	// *senderFlow (evSend, evRTO), *tcpSender (evTCPRTO), func() (evFunc).
	// All are pointer-shaped, so the conversion never allocates.
	recv any
}

func (ev *event) kind() eventKind { return eventKind(ev.tk) }
func (ev *event) tie() uint32     { return ev.tk >> 8 }

// tieKey is the tk of an event of the given kind emitted by link lid.
func tieKey(lid topology.LinkID, kind eventKind) uint32 {
	return uint32(lid+1)<<8 | uint32(kind)
}

// Engine is a deterministic discrete-event scheduler with a picosecond
// clock, built on a hierarchical timer wheel (wheel.go). The zero value is
// ready to use. Typed events dispatch through receivers registered by
// NewNetwork / NewR2C2 / NewTCP. One engine per simulation goroutine: the
// sharded engine depends on no other goroutine reaching it.
type Engine struct {
	now    simtime.Time
	nextID uint64
	count  uint64

	wheel timerWheel

	// Typed-event receivers, registered at construction time by the
	// same-package wiring (one Network and at most one transport per run).
	net *Network
	r2  *R2C2
	tcp *TCP
}

// Now returns the current simulated time.
func (e *Engine) Now() simtime.Time { return e.now }

// Processed returns how many events have run (a cheap progress/size metric).
func (e *Engine) Processed() uint64 { return e.count }

// Schedule runs fn at the given absolute time. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) Schedule(at simtime.Time, fn func()) {
	e.arm(at, e.now, uint32(evFunc), 0, fn)
}

// After schedules fn delay from now. A delay that would overflow
// simulated time panics explicitly (e.now+delay wraps negative, which
// would otherwise surface as a misleading scheduled-in-the-past panic —
// or, were the past-check ever relaxed, silently corrupt event order).
func (e *Engine) After(delay simtime.Time, fn func()) {
	e.after(delay, evFunc, fn)
}

// arm files an event and returns its cancellation handle. The record is
// written straight into the wheel's arena; nothing is passed or copied by
// value on the way.
func (e *Engine) arm(at, emit simtime.Time, tk uint32, node topology.NodeID, recv any) timerHandle {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	seq := e.nextID
	e.nextID++
	return timerHandle{idx: e.wheel.arm(at, emit, seq, tk, node, recv), seq: seq}
}

// after files an untied event of the given kind delay from now.
func (e *Engine) after(delay simtime.Time, kind eventKind, recv any) timerHandle {
	at := e.now + delay
	if delay >= 0 && at < e.now {
		panic("sim: delay overflows simulated time")
	}
	return e.arm(at, e.now, uint32(kind), 0, recv)
}

// cancelTimer removes a scheduled event by handle. Stale or zero handles
// (already fired, already cancelled) are ignored, so callers may cancel
// unconditionally and a cancelled timer can never fire.
func (e *Engine) cancelTimer(h timerHandle) {
	if h.idx != 0 {
		e.wheel.cancel(h)
	}
}

// NextEventAt returns the timestamp of the earliest scheduled event, or
// ok=false when the schedule is empty. The sharded engine's epoch loop uses
// it to jump idle shards across event-free stretches instead of stepping
// fixed lookahead windows through them.
func (e *Engine) NextEventAt() (simtime.Time, bool) {
	return e.wheel.peekAt()
}

// Run processes events until the queue is empty or the clock passes until.
// An event scheduled exactly at until still fires; if the queue drains
// early the clock is advanced to until. It returns the number of events
// processed by this call.
//
// Run is the simulator's hot loop. Anything per-packet must use a typed
// event: an evFunc closure is allocated where it is scheduled, which only
// cold control-plane callbacks can afford (DESIGN.md §11's gates measure
// the per-packet paths).
func (e *Engine) Run(until simtime.Time) uint64 {
	start := e.count
	for {
		idx := e.wheel.peek()
		if idx == 0 || e.wheel.nodes[idx-1].ev.at > until {
			break
		}
		ev := e.wheel.take(idx)
		if invariantsEnabled {
			assertInvariant(ev.at >= e.now, "stale event pop: event at %v behind clock %v (clock must never go backwards)", ev.at, e.now)
		}
		e.now = ev.at
		e.count++
		switch ev.kind() {
		case evFunc:
			ev.recv.(func())()
		case evTxDone:
			e.net.txDone(ev.recv.(*port))
		case evArrive:
			e.net.arrive(ev.node, ev.recv.(*Packet))
		case evSend:
			e.r2.sendNext(ev.recv.(*senderFlow))
		case evRTO:
			e.r2.onRTO(ev.recv.(*senderFlow))
		case evTCPRTO:
			e.tcp.onRTO(ev.recv.(*tcpSender))
		}
	}
	if e.now < until {
		e.now = until
	}
	return e.count - start
}

// advanceTo moves the clock of an engine with no event at or before t
// forward to t: what Run(t) would do, without looking at the schedule. The
// sharded engine's epoch loop uses it for shards idle through a window.
func (e *Engine) advanceTo(t simtime.Time) {
	if e.now < t {
		e.now = t
	}
}

// Pending reports whether any events remain scheduled (cancelled timers do
// not count).
func (e *Engine) Pending() bool { return e.wheel.count > 0 }

// PendingEvents returns how many live events are currently scheduled. The
// RTO-cancellation regression test uses this to assert the schedule stays
// O(in-flight timers) rather than O(acks).
func (e *Engine) PendingEvents() int { return e.wheel.count }
