package sim

// The run loop (DESIGN.md §14–15). Every run is a set of shards, each with
// its own Engine, Network and transport instance, stepped through one epoch
// loop and folded into one Results by one merge. RunConfig.Shards > 1
// partitions the fabric into one shard of contiguous racks per worker
// (topology.Partition.Grouped): a shard owns only its racks' node/port
// state, while the state derived from the topology alone — routing table,
// φ cache, broadcast FIB, and their degraded successors after a fault — is
// built once per run and read by all of them (fabric, r2c2.go). Otherwise
// the set is one shard owning the whole fabric, for which nothing below that
// speaks of boundaries ever runs.
// Shards advance under a conservative-lookahead epoch barrier, and an epoch
// costs only the shards that hold an event inside its window: the rest get a
// clock advance, and the phase runs inline on the orchestrator unless its
// active shards hold enough work to repay spreading it over the helper
// goroutines (fanout.go), which spin briefly on an atomic counter before
// they park. Intra-shard events never leave their shard; packets whose next
// hop belongs to another shard cross through per-pair boundary queues, and
// the orchestrator drains the non-empty ones serially at every epoch
// boundary, in deterministic (at, emission time, emitting link) order.
// The R2C2 control plane runs the same ρ tick in every shard, each over the
// nodes it owns: rates are a pure function of a view's flow set, so a shard
// paces its senders exactly as one shard would, and no tick waits for
// another shard (DESIGN.md §15).
//
// The lookahead window Δ is the minimum latency any cross-shard interaction
// can have: the smallest boundary-link propagation delay, additionally
// clamped by the fastest §3.2 drop-notification round trip (the only other
// cross-shard effect). An event executing at time t > E can therefore only
// produce cross-shard work at t' ≥ t+Δ > E+Δ, so running every shard
// independently through (E, E+Δ] and exchanging handoffs at the barrier
// preserves exact causality. One shard has nothing to bound Δ, so its epochs
// are the loop's completion-check slices. Results over every partition
// are byte-identical to one shard's, which the oracles compare them with.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"r2c2/internal/core"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
	"r2c2/internal/wire"
)

// handoff is one cross-shard interaction, flattened to plain data: either a
// packet crossing a boundary link (scheduled as an evArrive in the
// destination shard) or a §3.2 broadcast-retransmission request routed to
// the origin's shard (ctrl). Broadcast payloads are shared by pointer; they
// are immutable after publication and the epoch barrier orders the accesses.
type handoff struct {
	at   simtime.Time
	emit simtime.Time    // the event's emission stamp (event.emit), carried verbatim
	link topology.LinkID // the link the packet crosses / that dropped the broadcast: the tie key
	node topology.NodeID // arrival node / reflood origin
	ctrl bool            // reflood request rather than a packet

	kind      PacketKind
	size      int
	flow      wire.FlowID
	src, dst  topology.NodeID
	seq       uint32
	payload   int
	retries   uint8
	bcast     *wire.Broadcast
	flowSize  int64
	flowStart simtime.Time
	path      []topology.LinkID // remaining source route (data/ack)
}

// boundaryQueue is one directed src-shard→dst-shard mailbox. The source
// shard appends during its run phase; the orchestrator drains it serially
// between phases, so it is never accessed concurrently. Slots (and their
// path buffers) recycle across epochs, keeping the steady state
// allocation-free.
type boundaryQueue struct {
	slots []handoff
	n     int
}

// push returns the next zeroed slot, retaining its recycled path buffer.
func (q *boundaryQueue) push() *handoff {
	if q.n == len(q.slots) {
		q.slots = append(q.slots, handoff{})
	}
	h := &q.slots[q.n]
	q.n++
	path := h.path[:0]
	*h = handoff{path: path}
	return h
}

// reset empties the queue, keeping the slots for reuse.
func (q *boundaryQueue) reset() { q.n = 0 }

// shardCtx is one shard's boundary interface, referenced by its Network and
// R2C2 (net.sh) so the hot path can test ownership and export handoffs
// without reaching back into the orchestrator. It is written only by the
// shard's goroutine during run phases; the orchestrator reads it between
// phases, ordered by the epoch barrier. A shard that owns the whole fabric
// has one too, which only the orchestrator holds: it stays zero.
type shardCtx struct {
	self    int32
	shardOf []int32          // partition assignment, shared read-only
	out     []*boundaryQueue // out[d]: handoffs bound for shard d (out[self] nil)
	// dirty lists the destinations whose out queue turned non-empty this
	// epoch, in first-export order; drain visits only these and clears it.
	dirty []int32

	// ctrl counts control events (recompute ticks, fault injections,
	// reroute firings) that run once in EVERY shard but once in all on one
	// shard: the merge subtracts the S-1 duplicates from the event total and
	// asserts the count is identical across shards.
	ctrl uint64
	// handoffs counts exported boundary crossings (per-shard utilisation
	// statistic).
	handoffs uint64
	// tickHashes holds the distinct view hashes this shard settled an
	// allocation for in the current epoch's recomputation ticks, and
	// tickStarts where each tick's run of them starts: an epoch wider than ρ
	// holds several ticks. countRecomputations unions them across shards
	// tick by tick to reproduce one shard's Recomputations count, then
	// empties both.
	tickHashes []uint64
	tickStarts []int
	// ctrlNs accumulates wall-clock nanoseconds spent in recomputation
	// ticks. Reported per shard (ShardStat.CtrlNs), excluded from
	// byte-identity like BusyNs.
	ctrlNs int64
}

// export returns a zeroed handoff slot in the mailbox for shard dst.
func (c *shardCtx) export(dst int32) *handoff {
	q := c.out[dst]
	if q.n == 0 {
		c.dirty = append(c.dirty, dst)
	}
	c.handoffs++
	return q.push()
}

// shardState bundles one shard's engine stack. It is driven by exactly one
// goroutine per phase: a worker claims a shard off the phase's atomic
// counter, and the completion count orders phases.
type shardState struct {
	ctx *shardCtx
	eng *Engine
	net *Network

	// The transport: its flow table's log, and the instance itself when it is
	// R2C2 (the engine knows a TCP instance, which the merge reads once).
	flows *flowLog
	r2    *R2C2

	busyNs       int64  // wall-clock time spent inside run phases
	activeEpochs uint64 // epochs in which the shard held an event inside the window
	lastRun      uint64 // events its latest run phase processed: the next one's work estimate
}

// wallEpoch anchors wallNs; reading the clock relative to it costs one
// monotonic read instead of time.Now's wall + monotonic pair.
var wallEpoch = time.Now()

// wallNs reads the wall clock for the per-shard utilisation report
// (ShardStat.BusyNs, CtrlNs), which is documented as nondeterministic and
// excluded from byte-identity — no simulation decision ever reads it.
func wallNs() int64 {
	return time.Since(wallEpoch).Nanoseconds()
}

// ingest files one drained handoff into this (destination) shard's engine
// under the keys the same event has on one shard: its
// timestamp, its emission stamp and the link that emitted it. The sequence
// number is assigned afresh here, but it only orders events that agree on
// all three, and two such events come off one link — out of one shard, in
// its emission order.
func (st *shardState) ingest(h *handoff) {
	if h.ctrl {
		origin, b, retries := h.node, h.bcast, h.retries
		st.eng.arm(h.at, h.emit, tieKey(h.link, evFunc), 0, func() {
			st.r2.reflood(origin, b, retries)
		})
		return
	}
	pkt := st.net.newPacket()
	pkt.Kind = h.kind
	pkt.SizeBytes = h.size
	pkt.Flow = h.flow
	pkt.Src = h.src
	pkt.Dst = h.dst
	pkt.Seq = h.seq
	pkt.Payload = h.payload
	pkt.Retries = h.retries
	pkt.flowSize = h.flowSize
	pkt.flowStart = h.flowStart
	if h.kind == KindBroadcast {
		pkt.Bcast = h.bcast
	} else {
		pkt.scratch = append(pkt.scratch[:0], h.path...)
		pkt.Path = pkt.scratch
	}
	st.eng.arm(h.at, h.emit, tieKey(h.link, evArrive), h.node, pkt)
}

// ShardStat reports one shard's execution statistics (Results.ShardStats).
// Every field but BusyNs and CtrlNs is deterministic for a configuration and
// worker count. The shards are that count's rack groups, so Nodes, Events,
// Handoffs and ActiveEpochs follow the worker count. Epochs does not as
// long as Δ does not, which holds when all inter-rack cables share a delay.
type ShardStat struct {
	Shard    int
	Nodes    int    // vertices owned by the shard
	Events   uint64 // events processed by the shard's engine
	Handoffs uint64 // boundary handoffs exported to other shards
	// Epochs counts the run's lookahead windows in which any shard held an
	// event (the same in every entry); ActiveEpochs those in which this
	// shard did, and so was run rather than clock-advanced.
	Epochs       uint64
	ActiveEpochs uint64
	// BusyNs is wall-clock nanoseconds inside run phases. Routing table, φ
	// cache and broadcast trees are shared by all shards and built on first
	// use, so each such build is charged to whichever shard triggers it.
	BusyNs int64
	CtrlNs int64 // wall-clock nanoseconds in recomputation ticks, part of BusyNs
}

// fanoutMinEvents is the work below which a phase runs inline even with
// several active shards, estimated as the events those shards processed in
// their previous windows. Publishing a phase to another CPU and collecting
// it costs a few cache-line round trips plus the migration of the shard
// state, more than the ~6-event windows of shard8x64 (Δ = 100 ns) are worth,
// while the 10,240-node sweep's windows hold hundreds of events. Measured
// with one shard per worker over 32, 256 and 2048 (DESIGN.md §14), neither
// neighbour won on both workloads: 2048 ran the slowest sweep in every
// round, 32 the slowest shard8x64 median. It is a variable only so that the
// byte-identity oracles, whose small fabrics never reach it, can lower it and
// run their phases concurrently under -race.
var fanoutMinEvents uint64 = 256

// shardedRun is the orchestrator. The fan-out's helper goroutines reach the
// shards through it, and each shard's state is only ever touched by the
// single worker that claimed its index for the phase; the byte-identity
// oracles run at fanoutMinEvents = 0 under -race to hold that.
type shardedRun struct {
	cfg    RunConfig
	shards []*shardState
	delta  simtime.Time
	// The partition, one shard per worker; nil when one shard owns the
	// whole fabric.
	part *topology.Partition

	// Active set of the current epoch: nextAt[s] is shard s's earliest
	// pending event (noEvent when its schedule is empty), refreshed by
	// nextEventAt; active lists the shards with an event inside the window,
	// in shard order. epochs counts the windows with a non-empty active set.
	nextAt []simtime.Time
	active []*shardState
	epochs uint64

	// Phase execution. A phase over several active shards with enough work
	// to repay it (wide) is spread over the orchestrator and the helper
	// goroutines of workers; any other runs inline and wakes nobody.
	phaseUntil simtime.Time
	wide       bool
	workers    fanout // job i: the current phase on active[i]

	// Drain scratch, reused across epochs: inbox[d] collects the non-empty
	// mailboxes bound for shard d in source-shard order, dirtyDst the
	// destinations that have any, gather the handoffs being ordered.
	inbox    [][]*boundaryQueue
	dirtyDst []int32
	gather   []*handoff

	// recomputations accumulates, tick by tick, the size of the union of
	// the shards' tickHashes (countRecomputations); seen is its reusable
	// scratch.
	recomputations uint64
	seen           map[uint64]bool
}

// noEvent is nextAt's value for a shard with an empty schedule.
const noEvent = simtime.Time(math.MaxInt64)

// lookahead computes the conservative window Δ: the propagation delay of
// the boundary links (every link has the fabric-wide one), clamped by the
// fastest cross-shard drop notification (onDrop schedules the reflood at
// ≥ 2·Diameter·(prop+transmit) from the drop, since retries start at 1), and
// by ≥ 1 ps so epochs always advance.
func lookahead(g *topology.Graph, netCfg NetConfig) simtime.Time {
	netCfg.defaults()
	notify := 2 * simtime.Time(g.Diameter()) *
		(netCfg.PropDelay + simtime.TransmitTime(MTU, netCfg.LinkGbps))
	return max(min(netCfg.PropDelay, notify), 1)
}

// newShardedRun builds the run's shard set, transports attached and arrivals
// scheduled. More than one worker gets one shard per worker, each a run of
// contiguous racks (all racks apart when there are at least as many
// workers); every such partition reproduces the one-shard run, so Results are
// byte-identical at every worker count. Anything else gets one shard owning
// the whole fabric, its window bounded by nothing but the end of the run
// (DESIGN.md §14), cfg.MaxTime, which Run defaults.
func newShardedRun(cfg RunConfig, perSrc []int) *shardedRun {
	sr := &shardedRun{cfg: cfg}
	S, workers := 1, max(cfg.Shards, 1)
	var assign []int32 // nil: one shard owns every node
	sr.delta = cfg.MaxTime
	if workers > 1 {
		if cfg.Transport != TransportR2C2 {
			panic(fmt.Sprintf("sim: sharded runs require TransportR2C2, got %v (the PFQ back-pressure fabric and TCP baseline are serial-only)", cfg.Transport))
		}
		racks, err := topology.NewPartition(cfg.Graph)
		if err == nil {
			sr.part, err = racks.Grouped(cfg.Graph, workers)
		}
		if err != nil {
			panic(fmt.Sprintf("sim: sharded run needs a rack-partitioned fabric: %v", err))
		}
		S, assign = sr.part.Shards(), sr.part.ShardAssignment()
		sr.delta = lookahead(cfg.Graph, cfg.Net)
		sr.seen = make(map[uint64]bool)
	}
	sr.nextAt = make([]simtime.Time, S)
	sr.inbox = make([][]*boundaryQueue, S)

	// attach wires the run's transport into one shard and returns what
	// starts one of its flows. Topology-derived state is built once, here,
	// and read by every shard.
	var attach func(st *shardState) func(trafficgen.Arrival)
	tab := routing.NewTable(cfg.Graph)
	switch cfg.Transport {
	case TransportR2C2:
		cfg.R2C2.defaults()
		fabrics := &fabricCache{users: S, intact: core.NewFabric(tab, treesPerSource, cfg.R2C2.Seed)}
		attach = func(st *shardState) func(trafficgen.Arrival) {
			r2 := newR2C2(st.net, fabrics, cfg.R2C2)
			carveRows(r2.flows.rows, perSrc)
			if cfg.Faults.Len() > 0 {
				// Every shard runs the whole schedule: each must observe the
				// same degraded fabric (ctrl subtracts duplicates).
				r2.ApplyFaults(cfg.Faults)
			}
			st.r2, st.flows = r2, &r2.flows.flowLog
			return func(arr trafficgen.Arrival) {
				r2.StartFlow(arr.Src, arr.Dst, arr.SizeBytes, arr.Weight, arr.Priority)
			}
		}
	case TransportTCP:
		attach = func(st *shardState) func(trafficgen.Arrival) {
			tcp := NewTCP(st.net, tab, TCPConfig{})
			carveRows(tcp.flows.rows, perSrc)
			st.flows = &tcp.flows.flowLog
			return func(arr trafficgen.Arrival) { tcp.StartFlow(arr.Src, arr.Dst, arr.SizeBytes) }
		}
	case TransportPFQ:
		attach = func(st *shardState) func(trafficgen.Arrival) {
			pfq := NewPFQ(st.net, tab, cfg.PFQSeed)
			carveRows(pfq.flows.rows, perSrc)
			st.flows = &pfq.flows.flowLog
			return func(arr trafficgen.Arrival) { pfq.StartFlow(arr.Src, arr.Dst, arr.SizeBytes) }
		}
	default:
		panic(fmt.Sprintf("sim: unknown transport %v", cfg.Transport))
	}

	for s := 0; s < S; s++ {
		ctx := &shardCtx{self: int32(s), shardOf: assign, out: make([]*boundaryQueue, S)}
		for d := 0; d < S; d++ {
			if d != s {
				ctx.out[d] = &boundaryQueue{}
			}
		}
		eng := &Engine{}
		st := &shardState{ctx: ctx, eng: eng, net: NewNetwork(cfg.Graph, eng, cfg.Net)}
		if S > 1 {
			st.net.sh = ctx // before attach: the transport mirrors it
		}
		start := attach(st)
		own := cfg.Arrivals
		if S > 1 {
			own = nil // the source's owner starts the flow
			for _, arr := range cfg.Arrivals {
				if assign[arr.Src] == int32(s) {
					own = append(own, arr)
				}
			}
		}
		feedArrivals(eng, own, start)
		sr.shards = append(sr.shards, st)
	}
	sr.workers.start(S-1, func(i int) { sr.phaseShard(sr.active[i], wallNs()) })
	return sr
}

// arrivalFeed schedules one shard's flow arrivals one at a time: only the
// earliest arrival not yet started is in the wheel, and firing it arms the
// next, in stable At order. Each is armed under the sequence number it would
// have had, had every arrival been scheduled up front in list order — a
// block reserved when the feed is built — with emit 0 and no tie key, so it
// dispatches in the same (at, emit, tie, seq) place. Holding back the later
// ones changes nothing: an arrival is armed before anything that follows it
// in that order is dispatched, since its predecessor precedes it.
type arrivalFeed struct {
	arr   []trafficgen.Arrival // the shard's arrivals, in list order
	order []int32              // arr's indices in stable At order; nil when arr is sorted
	base  uint64               // the sequence number of arr[0]
	next  int                  // position in At order of the armed arrival
	start func(trafficgen.Arrival)
}

// feedArrivals reserves eng's next len(arr) sequence numbers for arr and arms
// its earliest arrival.
func feedArrivals(eng *Engine, arr []trafficgen.Arrival, start func(trafficgen.Arrival)) {
	if len(arr) == 0 {
		return
	}
	f := &arrivalFeed{arr: arr, base: eng.nextID, start: start}
	eng.nextID += uint64(len(arr))
	byAt := func(a, b trafficgen.Arrival) int { return cmp.Compare(a.At, b.At) }
	if !slices.IsSortedFunc(arr, byAt) {
		f.order = make([]int32, len(arr))
		for i := range f.order {
			f.order[i] = int32(i)
		}
		slices.SortStableFunc(f.order, func(a, b int32) int { return byAt(arr[a], arr[b]) })
	}
	f.arm(eng)
}

// index returns the list index of the arrival at position k in At order.
func (f *arrivalFeed) index(k int) int {
	if f.order == nil {
		return k
	}
	return int(f.order[k])
}

// arm files the arrival at position next under its reserved sequence number.
func (f *arrivalFeed) arm(eng *Engine) {
	i := f.index(f.next)
	eng.armSeq(f.arr[i].At, 0, f.base+uint64(i), uint32(evArrival), 0, f)
}

// fire starts the armed arrival's flow and arms the next arrival.
func (f *arrivalFeed) fire(eng *Engine) {
	arr := f.arr[f.index(f.next)]
	f.start(arr)
	if f.next++; f.next < len(f.arr) {
		f.arm(eng)
	}
}

// run steps the shard set through the run and returns the time it stopped
// at: epochs of at most Δ, nested inside the slices at whose ends completion
// is checked (the R2C2 recomputation tick re-arms itself for ever), so that
// the clock stops at the same boundary whatever the partition.
func (sr *shardedRun) run() simtime.Time {
	total := len(sr.cfg.Arrivals)
	maxTime := sr.cfg.MaxTime
	slice := maxTime / 64
	if slice < simtime.Microsecond {
		slice = simtime.Microsecond
	}
	now := simtime.Time(0)
	for now < maxTime {
		sliceEnd := min(now+slice, maxTime)
		for now < sliceEnd {
			// Idle jump: nothing can execute before the earliest pending
			// event T*, and events at T* export handoffs at ≥ T*+Δ, so the
			// epoch may end at max(now+Δ, T*) without losing causality.
			tstar := sr.nextEventAt()
			next := now + sr.delta
			if tstar != noEvent && tstar > next {
				next = tstar
			}
			if tstar == noEvent || next > sliceEnd {
				next = sliceEnd
			}
			// Only shards with an event inside the window run; the others'
			// clocks jump to its end. The epoch's phases fan out when the
			// active shards have recently been busy enough to repay it.
			sr.active = sr.active[:0]
			work := uint64(0)
			for s, st := range sr.shards {
				if sr.nextAt[s] <= next {
					sr.active = append(sr.active, st)
					st.activeEpochs++
					work += st.lastRun
				} else {
					st.eng.advanceTo(next)
				}
			}
			if len(sr.active) > 0 {
				sr.epochs++
				sr.wide = work >= fanoutMinEvents
				sr.runPhase(next)
				if len(sr.active[0].ctx.tickStarts) > 0 {
					sr.countRecomputations()
				}
				sr.drain()
			}
			now = next
		}
		// Every flow finishes in exactly one shard's table, so the counts add
		// up to the arrival list's length when all have started and finished.
		opened, done, pending := 0, 0, false
		for _, st := range sr.shards {
			opened += len(st.flows.order)
			done += st.flows.done
			pending = pending || st.eng.Pending()
		}
		if !pending || (opened == total && done == total) {
			break
		}
	}
	return now
}

// nextEventAt refreshes every shard's next-event time and returns the
// earliest (noEvent when every schedule is empty).
func (sr *shardedRun) nextEventAt() simtime.Time {
	min := noEvent
	for s, st := range sr.shards {
		at, ok := st.eng.NextEventAt()
		if !ok {
			at = noEvent
		}
		sr.nextAt[s] = at
		if at < min {
			min = at
		}
	}
	return min
}

// runPhase executes one phase over the active shards and returns when all
// of them have finished it (the happens-before edge for the orchestrator's
// serial drain). A phase over a single shard, one too small to repay a
// fan-out, or a run without helpers executes inline and wakes nobody; any
// other is published to the helpers — at most one per shard beyond the
// orchestrator's own — and the orchestrator claims shards alongside them.
func (sr *shardedRun) runPhase(until simtime.Time) {
	sr.phaseUntil = until
	if n := len(sr.active); n > 1 && sr.wide && sr.workers.helpers > 0 {
		sr.workers.do(n)
		return
	}
	t := wallNs()
	for _, st := range sr.active {
		t = sr.phaseShard(st, t)
	}
}

// phaseShard executes the current phase on one shard. t is the worker's
// latest clock reading: the shard is charged from there and the new reading
// returned, so running k shards reads the clock k+1 times.
func (sr *shardedRun) phaseShard(st *shardState, t int64) int64 {
	st.lastRun = st.eng.Run(sr.phaseUntil)
	now := wallNs()
	st.busyNs += now - t
	return now
}

// countRecomputations adds the epoch's recomputation ticks to the
// partition's Recomputations count. One shard dedups a tick's allocator runs
// by view hash across ALL nodes, so the union of the hashes the shards
// settled in the same tick reproduces its count exactly. Every shard holds
// every tick, so an epoch that ran one in any shard ran it in all of them,
// and the k-th tick of each shard's epoch is the same tick.
func (sr *shardedRun) countRecomputations() {
	ticks := len(sr.shards[0].ctx.tickStarts)
	for _, st := range sr.shards {
		if len(st.ctx.tickStarts) != ticks {
			panic(fmt.Sprintf("sim: shard %d ran %d recomputation ticks in an epoch where shard 0 ran %d",
				st.ctx.self, len(st.ctx.tickStarts), ticks))
		}
	}
	for k := 0; k < ticks; k++ {
		clear(sr.seen)
		for _, st := range sr.shards {
			c := st.ctx
			end := len(c.tickHashes)
			if k+1 < ticks {
				end = c.tickStarts[k+1]
			}
			for _, h := range c.tickHashes[c.tickStarts[k]:end] {
				sr.seen[h] = true
			}
		}
		sr.recomputations += uint64(len(sr.seen))
	}
	for _, st := range sr.shards {
		st.ctx.tickHashes, st.ctx.tickStarts = st.ctx.tickHashes[:0], st.ctx.tickStarts[:0]
	}
}

// drain moves the epoch's boundary handoffs into their destination shards,
// serially and deterministically. Only shards that ran can have exported,
// and each lists the mailboxes it made non-empty, so an epoch without
// crossings costs one pass over the active set. Per destination, handoffs
// are gathered in source-shard order and ordered by orderHandoffs, so the
// ingest order — and with it the destination engine's sequence numbers — is
// (at, emission time, link, emission index) regardless of worker count.
func (sr *shardedRun) drain() {
	for _, st := range sr.active {
		for _, d := range st.ctx.dirty {
			if len(sr.inbox[d]) == 0 {
				sr.dirtyDst = append(sr.dirtyDst, d)
			}
			sr.inbox[d] = append(sr.inbox[d], st.ctx.out[d])
		}
		st.ctx.dirty = st.ctx.dirty[:0]
	}
	for _, d := range sr.dirtyDst {
		buf := sr.gather[:0]
		for _, q := range sr.inbox[d] {
			for i := 0; i < q.n; i++ {
				buf = append(buf, &q.slots[i])
			}
			q.reset() // the slots stay valid until the source's next epoch
		}
		sr.inbox[d] = sr.inbox[d][:0]
		orderHandoffs(buf)
		for _, h := range buf {
			sr.shards[d].ingest(h)
		}
		sr.gather = buf[:0]
	}
	sr.dirtyDst = sr.dirtyDst[:0]
}

// orderHandoffs stably sorts one destination's gathered handoffs by the
// engine's dispatch keys (fire time, emission time, link), in place and
// without allocating. Equal keys keep their gather order, and since they
// share a link they share a source shard: that order is emission order.
func orderHandoffs(buf []*handoff) {
	slices.SortStableFunc(buf, func(a, b *handoff) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		if a.emit != b.emit {
			return cmp.Compare(a.emit, b.emit)
		}
		return cmp.Compare(a.link, b.link)
	})
}

// mergedOrder lists a partitioned run's flow records in the order one shard
// creates them: arrivals sorted stably by time (Schedule's FIFO tie-break
// preserves list order), each pulled from its source shard's log via a
// per-shard cursor. Records of cross-shard flows get their delivery fields
// folded in from the receive-side record the destination shard opened lazily.
func (sr *shardedRun) mergedOrder() []*FlowRecord {
	arrivals := sr.cfg.Arrivals
	idx := make([]int, len(arrivals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return arrivals[idx[a]].At < arrivals[idx[b]].At })
	cursors := make([]int, len(sr.shards))
	order := make([]*FlowRecord, 0, len(arrivals))
	for _, i := range idx {
		s := sr.part.ShardOf(arrivals[i].Src)
		opened := sr.shards[s].flows.order
		if cursors[s] >= len(opened) {
			break // the run stopped before this arrival fired
		}
		rec := opened[cursors[s]]
		cursors[s]++
		if d := sr.part.ShardOf(rec.Dst); d != s {
			if rslot := sr.shards[d].r2.flows.get(rec.ID); rslot != nil {
				rec.BytesRcvd = rslot.rec.BytesRcvd
				rec.Done = rslot.rec.Done
				rec.Finished = rslot.rec.Finished
			}
		}
		order = append(order, rec)
	}
	return order
}

// merge assembles the Results of a run that stopped at end from the shard
// set: what one shard counted, or the partition's counts folded into
// what one shard would have counted.
func (sr *shardedRun) merge(end simtime.Time) *Results {
	cfg, S, first := sr.cfg, len(sr.shards), sr.shards[0]

	res := &Results{Transport: cfg.Transport, EndTime: end, Flows: first.flows.order}
	if sr.part != nil {
		res.Flows = sr.mergedOrder()
	}
	// Creation order is also sample order: the FCT samples of one
	// configuration must read the same whatever the shard count.
	for _, rec := range res.Flows {
		if !rec.Done {
			res.Incomplete++
			continue
		}
		res.Completed++
		fct := rec.FCT().Seconds()
		res.AllFCT.Add(fct)
		if rec.SizeBytes < ShortFlowMax {
			res.ShortFCT.Add(fct)
		}
		if rec.SizeBytes > LongFlowMin {
			res.LongThroughput.Add(rec.Throughput())
		}
	}
	for _, st := range sr.shards {
		res.Events += st.eng.Processed()
		res.Drops += st.net.TotalDrops()
		res.Hops += st.net.PktHops
		res.BcastBytes += st.net.BcastBytesOnWire
	}
	if tcp := first.eng.tcp; tcp != nil {
		res.Retransmissions = tcp.Retransmissions
	}

	// Per-port peaks live with the port's transmitting shard (the owner of
	// the link's From node); other shards never enqueue on that port.
	maxq := first.net.MaxQueueSample()
	for s := 1; s < S; s++ {
		for lid, peak := range sr.shards[s].net.MaxQueueSample() {
			if sr.part.ShardOf(cfg.Graph.Link(topology.LinkID(lid)).From) == int32(s) {
				maxq[lid] = peak
			}
		}
	}
	res.MaxQueue.AddAll(maxq)

	if first.r2 != nil {
		// Control events fire in every shard: each must have executed the
		// identical sequence; subtract the S-1 duplicates of each.
		ctrl := first.ctx.ctrl
		res.RecomputeRounds = first.r2.RecomputeRounds
		res.FailureReroutes = first.r2.FailureReroutes
		for _, st := range sr.shards {
			if st.ctx.ctrl != ctrl || st.r2.RecomputeRounds != res.RecomputeRounds ||
				st.r2.FailureReroutes != res.FailureReroutes {
				panic(fmt.Sprintf("sim: shard control divergence: ctrl %d/%d rounds %d/%d reroutes %d/%d",
					st.ctx.ctrl, ctrl, st.r2.RecomputeRounds, res.RecomputeRounds,
					st.r2.FailureReroutes, res.FailureReroutes))
			}
			res.Reorder.Merge(&st.r2.Reorder)
		}
		res.Events -= uint64(S-1) * ctrl
		// One shard dedups a tick's allocator runs by view hash across all
		// nodes itself; countRecomputations has counted the partition's
		// unions.
		res.Recomputations = first.r2.Recomputations
		if sr.part != nil {
			res.Recomputations = sr.recomputations
		}
	}
	if sr.part == nil {
		return res
	}

	nodes := make([]int, S)
	for _, s := range sr.part.ShardAssignment() {
		nodes[s]++
	}
	for s, st := range sr.shards {
		res.ShardStats = append(res.ShardStats, ShardStat{
			Shard:        s,
			Nodes:        nodes[s],
			Events:       st.eng.Processed(),
			Handoffs:     st.ctx.handoffs,
			Epochs:       sr.epochs,
			ActiveEpochs: st.activeEpochs,
			BusyNs:       st.busyNs,
			CtrlNs:       st.ctx.ctrlNs,
		})
	}
	return res
}
