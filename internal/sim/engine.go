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
// per-packet events (transmit completion, arrival, pacing) carry their
// receiver and packet as plain struct fields and are dispatched through a
// switch, so scheduling them allocates nothing; rare control-plane events
// (recomputation ticks, failure detection, drop notifications) still use
// evFunc closures.
type eventKind uint8

const (
	evFunc   eventKind = iota // generic callback (cold path)
	evTxDone                  // a port finished serialising pkt
	evArrive                  // pkt reaches node after propagation
	evSend                    // R2C2 token-bucket pacing: transmit sf's next packet
	evRTO    eventKind = 4    // R2C2 reliability retransmission timeout (u64 = timer generation)
	evTCPRTO eventKind = 5    // TCP retransmission timeout (u64 = timer generation)
)

// event is one scheduled typed record. Only the fields its kind names are
// meaningful; events are stored by value in the engine's heap, so pushing
// one never boxes through an interface or captures a closure.
type event struct {
	at  simtime.Time
	seq uint64 // FIFO tie-break for equal timestamps: determinism

	// emit is the simulated time the event was scheduled at — the engine
	// clock when schedule() ran, or the source shard's clock for a
	// cross-shard handoff (scheduleHandoff). The comparator orders equal
	// timestamps by (emit, seq) instead of seq alone. For any one engine
	// emit is monotone in seq (the clock never runs backwards between
	// schedule calls), so serial dispatch order is unchanged; the stamp
	// only matters for ingested handoffs, whose fresh ingest-time seq
	// would otherwise misplace them among equal-timestamp local events —
	// carrying the emission time restores the serial engine's global
	// emission order on exact-picosecond cross-shard ties.
	emit simtime.Time

	kind eventKind
	node topology.NodeID // evArrive: receiving node
	u64  uint64          // evRTO/evTCPRTO: timer generation
	pkt  *Packet         // evTxDone, evArrive
	port *port           // evTxDone
	rn   *r2c2Node       // evSend, evRTO
	sf   *senderFlow     // evSend, evRTO
	ts   *tcpSender      // evTCPRTO
	fn   func()          // evFunc
}

// Engine is a deterministic discrete-event scheduler with a picosecond
// clock. The zero value is ready to use and schedules through the
// hierarchical timer wheel (wheel.go); UseLegacyHeap switches a fresh
// engine back to the value min-heap, kept as the differential oracle for
// the wheel (scheduler_oracle_test.go). Typed events dispatch through
// receivers registered by NewNetwork / NewR2C2 / NewTCP. One engine per
// simulation goroutine: the sharded engine (ROADMAP) depends on no other
// goroutine reaching it.
//
//r2c2:shardowned — created and driven by one goroutine
type Engine struct {
	now    simtime.Time
	nextID uint64
	count  uint64

	wheel timerWheel

	// stopReq pauses Run after the current event's dispatch returns, leaving
	// the clock at that event's timestamp instead of advancing to until. The
	// sharded engine's aggregated control plane sets it from inside the
	// recomputation tick: the shard must not process any event past (or even
	// at, with a later sequence than) the tick until the cross-shard
	// reduction has published the global allocation back.
	stopReq bool

	legacyHeap bool
	events     []event // legacy binary min-heap by (at, seq)

	// Typed-event receivers, registered at construction time by the
	// same-package wiring (one Network and at most one transport per run).
	net *Network
	r2  *R2C2
	tcp *TCP
}

// UseLegacyHeap switches the engine to the value min-heap scheduler that
// predates the timer wheel. The heap keeps superseded timers as
// generation-guarded tombstones (cancelTimer becomes a no-op), so
// Processed() counts their no-op fires; live-event dispatch order is
// byte-identical to the wheel's. Must be called before any scheduling.
func (e *Engine) UseLegacyHeap() {
	if e.nextID != 0 {
		panic("sim: UseLegacyHeap after events were scheduled")
	}
	e.legacyHeap = true
}

// Now returns the current simulated time.
func (e *Engine) Now() simtime.Time { return e.now }

// Processed returns how many events have run (a cheap progress/size metric).
func (e *Engine) Processed() uint64 { return e.count }

// Schedule runs fn at the given absolute time. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) Schedule(at simtime.Time, fn func()) {
	e.schedule(at, event{kind: evFunc, fn: fn})
}

// After schedules fn delay from now. A delay that would overflow
// simulated time panics explicitly (e.now+delay wraps negative, which
// would otherwise surface as a misleading scheduled-in-the-past panic —
// or, were the past-check ever relaxed, silently corrupt event order).
func (e *Engine) After(delay simtime.Time, fn func()) {
	e.after(delay, event{kind: evFunc, fn: fn})
}

// schedule files a typed event record at an absolute time and returns its
// cancellation handle. Under the legacy heap the handle is inert:
// cancelTimer no-ops and callers fall back to generation guards.
func (e *Engine) schedule(at simtime.Time, ev event) timerHandle {
	return e.scheduleHandoff(at, e.now, ev)
}

// scheduleHandoff is schedule with an explicit emission stamp: the sharded
// engine's ingest path files boundary handoffs with the source shard's
// emission time, so equal-timestamp ties against local events resolve by
// global emission order exactly as they would have in a serial run. All
// local scheduling goes through schedule(), which stamps the current clock.
func (e *Engine) scheduleHandoff(at, emit simtime.Time, ev event) timerHandle {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	ev.at = at
	ev.emit = emit
	ev.seq = e.nextID
	e.nextID++
	if e.legacyHeap {
		e.push(ev)
		return timerHandle{}
	}
	return e.wheel.schedule(ev)
}

// after files a typed event record delay from now.
func (e *Engine) after(delay simtime.Time, ev event) timerHandle {
	at := e.now + delay
	if delay >= 0 && at < e.now {
		panic("sim: delay overflows simulated time")
	}
	return e.schedule(at, ev)
}

// cancelTimer removes a scheduled event by handle. Stale or zero handles
// (already fired, already cancelled, or issued by the legacy heap) are
// ignored, so callers may cancel unconditionally.
func (e *Engine) cancelTimer(h timerHandle) {
	if h.idx != 0 && !e.legacyHeap {
		e.wheel.cancel(h)
	}
}

// NextEventAt returns the timestamp of the earliest scheduled event, or
// ok=false when the schedule is empty. The sharded engine's epoch loop uses
// it to jump idle shards across event-free stretches instead of stepping
// fixed lookahead windows through them.
func (e *Engine) NextEventAt() (simtime.Time, bool) {
	if e.legacyHeap {
		if len(e.events) == 0 {
			return 0, false
		}
		return e.events[0].at, true
	}
	return e.wheel.peekAt()
}

// less orders the heap by timestamp, then emission time, then insertion
// sequence. Locally scheduled events have emit monotone in seq, so the
// emission key is a no-op for serial runs (the order is exactly the old
// (at, seq)); it only separates ingested cross-shard handoffs from local
// events at the same picosecond — by the global emission order the serial
// engine would have used.
func (e *Engine) less(i, j int) bool {
	a, b := &e.events[i], &e.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.emit != b.emit {
		return a.emit < b.emit
	}
	return a.seq < b.seq
}

// push appends ev and restores the heap by sifting it up.
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The vacated slot is zeroed so
// the heap does not retain packets or closures past their dispatch.
func (e *Engine) pop() event {
	top := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events[n] = event{}
	e.events = e.events[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && e.less(l, min) {
			min = l
		}
		if r < n && e.less(r, min) {
			min = r
		}
		if min == i {
			return top
		}
		e.events[i], e.events[min] = e.events[min], e.events[i]
		i = min
	}
}

// Run processes events until the queue is empty or the clock passes until.
// An event scheduled exactly at until still fires; if the queue drains
// early the clock is advanced to until. It returns the number of events
// processed by this call.
//
// Run is the simulator's hot loop: the annotation puts the whole typed
// dispatch tree — heap ops, Network forwarding, both transports — under
// the allocation budget. evFunc closures dispatch dynamically and escape
// the static call graph, so cold control-plane callbacks stay off-budget
// by construction; anything per-packet must use a typed event.
//
//r2c2:hotpath
func (e *Engine) Run(until simtime.Time) uint64 {
	if e.legacyHeap {
		return e.runHeap(until)
	}
	start := e.count
	for {
		idx := e.wheel.peek()
		if idx == 0 || e.wheel.nodes[idx-1].ev.at > until {
			break
		}
		ev := e.wheel.pop()
		if invariantsEnabled {
			//lint:ignore alloc-hotpath debug-only assertion args; invariantsEnabled is constant-false in release builds
			assertInvariant(ev.at >= e.now, "stale event pop: event at %v behind clock %v (clock must never go backwards)", ev.at, e.now)
		}
		e.now = ev.at
		e.count++
		e.dispatch(ev)
		if e.stopReq {
			e.stopReq = false
			return e.count - start
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

// requestStop makes the current Run call return once the event being
// dispatched completes, without advancing the clock to its until bound.
// Calling it outside a dispatch is meaningless and therefore a bug.
func (e *Engine) requestStop() { e.stopReq = true }

// dispatch routes one popped event to its typed receiver.
//
//r2c2:hotpath
func (e *Engine) dispatch(ev event) {
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evTxDone:
		e.net.transmitDone(ev.port, ev.pkt)
	case evArrive:
		e.net.arrive(ev.node, ev.pkt)
	case evSend:
		e.r2.sendNext(ev.rn, ev.sf)
	case evRTO:
		e.r2.onRTO(ev.rn, ev.sf, ev.u64)
	case evTCPRTO:
		e.tcp.onRTO(ev.ts, ev.u64)
	}
}

// runHeap is Run under the legacy min-heap scheduler.
func (e *Engine) runHeap(until simtime.Time) uint64 {
	start := e.count
	for len(e.events) > 0 {
		if e.events[0].at > until {
			break
		}
		ev := e.pop()
		if invariantsEnabled {
			//lint:ignore alloc-hotpath debug-only assertion args; invariantsEnabled is constant-false in release builds
			assertInvariant(ev.at >= e.now, "stale event pop: event at %v behind clock %v (clock must never go backwards)", ev.at, e.now)
		}
		e.now = ev.at
		e.count++
		e.dispatch(ev)
		if e.stopReq {
			e.stopReq = false
			return e.count - start
		}
	}
	if e.now < until {
		e.now = until
	}
	return e.count - start
}

// Pending reports whether any events remain scheduled. Under the wheel,
// cancelled timers do not count; under the legacy heap their tombstones do
// (they still occupy the schedule until their no-op fire).
func (e *Engine) Pending() bool {
	if e.legacyHeap {
		return len(e.events) > 0
	}
	return e.wheel.count > 0
}

// PendingEvents returns how many events are currently scheduled — live
// events only under the wheel, tombstones included under the legacy heap.
// The RTO-cancellation regression test uses this to assert the schedule
// stays O(in-flight timers) rather than O(acks).
func (e *Engine) PendingEvents() int {
	if e.legacyHeap {
		return len(e.events)
	}
	return e.wheel.count
}
