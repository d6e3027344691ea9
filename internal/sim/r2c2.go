package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"r2c2/internal/core"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/stats"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// R2C2Config parameterises the R2C2 transport.
type R2C2Config struct {
	Headroom       float64          // bandwidth headroom (paper default 5%)
	Recompute      simtime.Time     // rate recomputation interval ρ (paper: 500 µs)
	Protocol       routing.Protocol // routing protocol for new flows (paper: minimal)
	TreesPerSource int              // broadcast trees per source (default 4)
	Seed           int64

	// Reliable enables the end-to-end reliability extension sketched in §6:
	// receivers return cumulative acknowledgements used *solely* for
	// reliability (never for rate control — rates still come from the
	// broadcast-driven computation), and senders go-back-N retransmit on
	// timeout. A flow's finish event is then broadcast when every byte is
	// acknowledged rather than when the last byte is handed to the NIC.
	Reliable bool
	// RTO is the retransmission timeout when Reliable is set (default 1 ms,
	// generous against a <10 µs fabric RTT).
	RTO simtime.Time
}

func (c *R2C2Config) defaults() {
	if c.Recompute == 0 {
		c.Recompute = simtime.FromSeconds(core.DefaultRho.Seconds())
	}
	if c.TreesPerSource == 0 {
		c.TreesPerSource = 4
	}
	if c.RTO == 0 {
		c.RTO = simtime.Millisecond
	}
}

// R2C2 is the full R2C2 stack running over the simulated fabric: flow-event
// broadcasts keep every node's view current; every node periodically
// recomputes the rates of the flows it sources and paces them with one
// token-bucket rate limiter per flow; packets are source-routed with
// per-packet paths drawn from each flow's routing protocol (§3).
type R2C2 struct {
	Net *Network
	Tab *routing.Table
	Fib *topology.BroadcastFIB
	Cfg R2C2Config

	rc    *core.RateComputer
	nodes []*r2c2Node
	flows *flowTable[r2c2Flow]

	// sh is the shard context when this R2C2 instance drives one shard of
	// a rack partition (shard.go): nil when one shard owns the whole fabric. Control events that fire
	// in every shard (recomputation ticks, fault injections, reroutes) tick
	// its counter so the merged Results can subtract the duplicates.
	sh *shardCtx

	// fabrics builds the degraded fabric of each reroute generation once for
	// every R2C2 instance of the run (one per shard, so possibly a single user).
	fabrics *fabricCache

	// gen is the route generation: interned per-flow routes and ack paths
	// tagged with an older generation are recomputed (a reroute swapped in a
	// new Tab/linkMap underneath them).
	gen uint64

	// Failure state (§3.2, "Failures"): after detection, Tab/Fib/rc are
	// rebuilt over the degraded fabric and linkMap translates its link IDs
	// back to physical ports. nil linkMap means the fabric is intact.
	//
	// The degraded fabric is always recomputed at detection-FIRE time from
	// the accumulated failedLinks/deadNodes union, never from a snapshot
	// captured at injection: overlapping failures with interleaved
	// detection windows would otherwise let a later-firing callback
	// install an older fabric, resurrecting a still-failed link. failSeq
	// counts fault injections and reroutedSeq the injections already
	// covered by a reroute, so a detection callback whose injections were
	// all covered by an earlier (later-injected, shorter-delay) reroute
	// no-ops instead of rebuilding the same fabric again.
	failedLinks []bool // indexed by LinkID
	deadNodes   []bool // indexed by NodeID, one per vertex
	linkMap     []topology.LinkID
	failSeq     uint64
	reroutedSeq uint64
	// FailureReroutes counts fabric rebuilds.
	FailureReroutes uint64

	// Reorder tracks the receive-side reorder-buffer occupancy observed at
	// every data-packet arrival (§5.2's reordering analysis).
	Reorder stats.Counts

	// Recomputations counts allocator invocations; RecomputeRounds counts
	// periodic ticks. Their ratio shows the view-cache amortisation.
	Recomputations  uint64
	RecomputeRounds uint64
	// Retransmissions counts re-sent data chunks (Reliable mode only).
	Retransmissions uint64
	// BcastRetransmits counts §3.2 broadcast retransmissions after drops.
	BcastRetransmits uint64

	// tickCache maps view hashes to allocator runs within one recomputeTick
	// round. It persists across ticks (cleared, not reallocated) so the
	// periodic recomputation stays off the per-tick allocation budget.
	tickCache map[uint64]*core.Allocation

	vis core.Visibility    // the owned nodes' views, a column per node
	sum core.DemandSummary // the tick's flow list, reused

	// bcastHops is the buffer broadcastHops appends a node's tree hops into.
	bcastHops []topology.LinkID
}

// r2c2Flow is a flow's slot in the transport's flow table: its sender while
// the flow is live at its source, its receive state from the first data
// packet until the flow is delivered (Reliable: until its finish broadcast).
// In a sharded run the two ends may sit in different instances' tables.
type r2c2Flow struct {
	send *senderFlow
	recv *reorderState
}

// r2c2Node is one node's protocol state: its view's column, live flows and
// tree cursor. It is mutated only by its shard's engine goroutine.
type r2c2Node struct {
	id  topology.NodeID
	col int // this node's column of the instance's Visibility
	// flows lists the node's live flows in creation order, which is ascending
	// flow-ID order: recomputation ticks and reroutes schedule events flow by
	// flow, and scheduling order is the (at, seq) FIFO tie-break, so the walk
	// has to be the same in every run.
	flows    []*senderFlow
	nextTree uint8
	// rng is the node's private route-sampling stream (rng.go), created on
	// the node's first sourced flow. Per-node streams keep route sampling
	// independent of global event interleaving, so the sharded engine draws
	// the same routes as the serial one.
	rng *rand.Rand
}

type senderFlow struct {
	node      *r2c2Node // the source: where pacing and timeout events run
	live      bool      // still on node.flows: not finished, not abandoned to a failure
	info      core.FlowInfo
	remaining int64
	rate      float64 // bits/s, as allocated
	demand    float64 // bits/s host-side cap; <= 0 means unlimited
	armed     bool    // a send event is scheduled
	seq       uint32

	// started is the flow's ledger start time, stamped onto data packets
	// in sharded runs so the receiving shard can open its record lazily.
	started simtime.Time

	// Reliability state (Cfg.Reliable only). Chunk i carries the byte
	// range [i·MaxPayload, min(size, (i+1)·MaxPayload)).
	size      int64
	totalPkts uint32
	nextChunk uint32 // next chunk to transmit (pulled back on RTO)
	cumAcked  uint32 // chunks acknowledged in order
	rtoArmed  bool
	rtoTimer  timerHandle // cancels the pending timer outright

	// route is the flow's interned source route when its protocol is
	// deterministic (DOR): computed once, shared by reference across all the
	// flow's packets. routeGen tags the fabric generation it was computed
	// under.
	route    []topology.LinkID
	routeGen uint64
}

// chunkPayload returns the payload size of chunk i.
func (sf *senderFlow) chunkPayload(i uint32) int64 {
	off := int64(i) * MaxPayload
	left := sf.size - off
	if left > MaxPayload {
		return MaxPayload
	}
	return left
}

// paceRate returns the rate the token bucket enforces: the allocation,
// additionally capped by the host-side demand.
func (sf *senderFlow) paceRate() float64 {
	if sf.demand > 0 && sf.demand < sf.rate {
		return sf.demand
	}
	return sf.rate
}

type reorderState struct {
	reorderWindow

	// ackPath is the interned reverse DOR route for reliability acks,
	// shared by reference across the flow's acks (a private copy, because
	// translation to physical ports mutates it in place and the Phi cache
	// it derives from must stay pristine). ackGen tags its fabric
	// generation.
	ackPath []topology.LinkID
	ackGen  uint64
}

// fabric is the routing state derived from one fabric generation's graph:
// the routing table (with its φ cache and minimal DAGs), the broadcast FIB,
// and the translation of a degraded graph's link IDs back to physical ports
// (nil while the fabric is intact). Table and FIB fill lazily behind their
// own synchronisation and are otherwise immutable, so every shard of a
// sharded run reads the same instances.
type fabric struct {
	tab     *routing.Table
	fib     *topology.BroadcastFIB
	linkMap []topology.LinkID
}

// fabricCache hands each reroute generation's fabric to the run's R2C2
// instances: the first to reach a generation builds it, the rest reuse it,
// and the entry is dropped once all of them hold it. Shards replicate the
// fault schedule in lockstep, so the n-th reroute sees the same failure
// state in every shard.
type fabricCache struct {
	mu    sync.Mutex
	users int // R2C2 instances sharing the cache
	gens  map[uint64]*cachedFabric
}

type cachedFabric struct {
	fabric
	taken int
}

func (c *fabricCache) get(gen uint64, build func() fabric) fabric {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.gens[gen]
	if e == nil {
		if c.gens == nil {
			c.gens = make(map[uint64]*cachedFabric)
		}
		e = &cachedFabric{fabric: build()}
		c.gens[gen] = e
	}
	if e.taken++; e.taken == c.users {
		delete(c.gens, gen)
	}
	return e.fabric
}

// NewR2C2 wires the transport into a network. It installs the Deliver and
// broadcast-FIB hooks, so one Network hosts exactly one transport.
func NewR2C2(net *Network, tab *routing.Table, cfg R2C2Config) *R2C2 {
	cfg.defaults()
	fib := topology.NewBroadcastFIB(net.G, cfg.TreesPerSource, cfg.Seed)
	return newR2C2(net, fabric{tab: tab, fib: fib}, &fabricCache{users: 1}, cfg)
}

// newR2C2 is NewR2C2 over a caller-built intact fabric and reroute cache
// (the sharded engine passes the same two to every shard's instance); cfg
// already has its defaults applied.
func newR2C2(net *Network, fab fabric, fabrics *fabricCache, cfg R2C2Config) *R2C2 {
	r := &R2C2{
		Net:     net,
		Cfg:     cfg,
		flows:   newFlowTable[r2c2Flow](net.G.Nodes()),
		sh:      net.sh,
		fabrics: fabrics,
	}
	r.install(fab)
	r.nodes = make([]*r2c2Node, net.G.Nodes())
	owned := 0
	for i := range r.nodes {
		if r.sh != nil && r.sh.shardOf[i] != r.sh.self {
			continue // another shard owns this node's state
		}
		r.nodes[i] = &r2c2Node{id: topology.NodeID(i), col: owned}
		owned++
	}
	r.vis = core.NewVisibility(owned)
	r.failedLinks = make([]bool, net.G.NumLinks())
	r.deadNodes = make([]bool, net.G.Vertices())
	net.Deliver = r.deliver
	net.NextBroadcastHops = r.broadcastHops
	net.OnDrop = r.onDrop
	if net.Eng.r2 != nil && net.Eng.r2 != r {
		panic("sim: engine already drives another R2C2 transport")
	}
	net.Eng.r2 = r // typed-event receiver for evSend/evRTO
	// Arm the periodic recomputation tick.
	net.Eng.After(cfg.Recompute, r.recomputeTick)
	return r
}

// maxBcastRetries bounds §3.2 broadcast retransmission; failures beyond it
// are covered by the periodic resynchronisation paths (finish broadcasts,
// failure re-announcements).
const maxBcastRetries = 3

// onDrop implements §3.2's broadcast loss recovery: "To detect drops due
// to queue overflows at intermediate nodes, the node dropping a broadcast
// packet informs the sender who can then re-transmit." The notification
// trip is modelled as one fabric traversal; the retransmission uses the
// origin's next broadcast tree, so it avoids repeating the congested path.
func (r *R2C2) onDrop(pkt *Packet, at topology.LinkID) {
	if pkt.Kind != KindBroadcast || pkt.Retries >= maxBcastRetries {
		return
	}
	r.BcastRetransmits++
	origin := pkt.Src
	b := *pkt.Bcast
	retries := pkt.Retries + 1
	// The drop notification crosses the fabric behind whatever congestion
	// caused the drop (store-and-forward at MTU granularity), and repeated
	// failures back off exponentially so retransmissions outlive the burst.
	notify := simtime.Time(r.Net.G.Diameter()) *
		(r.Net.Cfg.PropDelay + simtime.TransmitTime(MTU, r.Net.Cfg.LinkGbps)) *
		simtime.Time(1<<retries)
	if r.sh != nil && r.sh.shardOf[origin] != r.sh.self {
		// The drop happened on a link this shard owns but the origin lives
		// elsewhere: hand the retransmission request across the boundary.
		// notify ≥ 2·Diameter·(prop+transmit) ≥ the lookahead window, so the
		// control handoff is always inside the conservative-sync horizon.
		r.Net.exportReflood(r.sh.shardOf[origin], r.Net.Eng.now+notify, at, origin, &b, retries)
		return
	}
	// Keyed by the dropping link like an arrival: notifications of drops in
	// the same picosecond then reach the origin in link order wherever the
	// drops happened, not in an order only a serial run has.
	eng := r.Net.Eng
	eng.arm(eng.now+notify, eng.now, tieKey(at, evFunc), 0, func() { r.reflood(origin, &b, retries) })
}

// reflood retransmits a dropped broadcast from its origin on the origin's
// next tree (§3.2 loss recovery). Runs in the origin's shard.
func (r *R2C2) reflood(origin topology.NodeID, b *wire.Broadcast, retries uint8) {
	node := r.nodes[origin]
	nb := *b
	nb.Tree = r.pickTree(node)
	cp := r.Net.newPacket()
	cp.Kind = KindBroadcast
	cp.SizeBytes = BroadcastBytes
	cp.Flow = nb.Flow()
	cp.Src = origin
	cp.Bcast = &nb
	cp.Retries = retries
	r.Net.InjectBroadcast(origin, cp)
}

// physInPlace translates a path expressed in the current fabric's link IDs
// to physical port IDs (identity while the fabric is intact), overwriting the
// slice itself: only for buffers the caller owns (a packet's sampling scratch
// or an interned copy), never for cached Phi or successor paths.
func (r *R2C2) physInPlace(path []topology.LinkID) {
	if r.linkMap == nil {
		return
	}
	for i, lid := range path {
		path[i] = r.linkMap[lid]
	}
}

// degradedGraph recomputes the degraded graph from the CURRENT failure
// state. Called at injection (to validate connectivity before committing)
// and at detection-fire time (never from a stale snapshot).
func (r *R2C2) degradedGraph() (*topology.Graph, []topology.LinkID, error) {
	if !slices.Contains(r.failedLinks, true) && !slices.Contains(r.deadNodes, true) {
		return r.Net.G, nil, nil
	}
	return r.Net.G.WithoutLinksAndNodes(r.failedLinks, r.deadNodes)
}

// install swaps in a fabric generation's routing state. The rate computer
// derives its φ-vectors from the table, so it restarts with it.
func (r *R2C2) install(f fabric) {
	r.Tab, r.Fib, r.linkMap = f.tab, f.fib, f.linkMap
	r.rc = core.NewRateComputer(r.Tab, r.Net.Cfg.LinkGbps*1e9, r.Cfg.Headroom)
}

// FailLink fails both directions of the cable between a and b. Packets in
// flight or later routed onto the dead ports are lost immediately; after
// `detection` (the topology-discovery delay of §3.2) every node switches to
// the degraded fabric and re-broadcasts information about all its ongoing
// flows, resynchronising any views that missed events. It returns an error
// if the failure would partition the rack.
func (r *R2C2) FailLink(a, b topology.NodeID, detection simtime.Time) error {
	var added []topology.LinkID
	for _, pair := range [][2]topology.NodeID{{a, b}, {b, a}} {
		lid, ok := r.Net.G.LinkBetween(pair[0], pair[1])
		if !ok || r.failedLinks[lid] {
			continue
		}
		r.failedLinks[lid] = true
		added = append(added, lid)
	}
	if len(added) == 0 {
		return fmt.Errorf("sim: no link between %d and %d", a, b)
	}
	// Validate connectivity before killing anything. Only the union is
	// checked here; connectivity is monotone in the failed set, so every
	// later fire-time recompute over a subset-or-equal state succeeds too.
	if _, _, err := r.degradedGraph(); err != nil {
		for _, lid := range added {
			r.failedLinks[lid] = false
		}
		return err
	}
	for _, lid := range added {
		r.Net.FailLink(lid)
	}
	r.failSeq++
	r.Net.Eng.After(detection, r.rerouteNow)
	return nil
}

// FailNode kills an entire node (§3.2 considers node failures alongside
// link failures): all its links go dark immediately; after `detection`,
// survivors switch to the degraded fabric, purge the dead node's flows
// from their views (their bandwidth must not stay reserved), and
// re-announce their own flows. Flows sourced at or destined to the dead
// node are abandoned and remain incomplete in the ledger.
func (r *R2C2) FailNode(dead topology.NodeID, detection simtime.Time) error {
	if r.deadNodes[dead] {
		return fmt.Errorf("sim: node %d already failed", dead)
	}
	r.deadNodes[dead] = true
	// Fold the node's links into failedLinks so later link failures are
	// validated against the full union (a link failure after a node crash
	// must not count on the dead node's cables for connectivity).
	var added []topology.LinkID
	for _, links := range [][]topology.LinkID{r.Net.G.Out(dead), r.Net.G.In(dead)} {
		for _, lid := range links {
			if !r.failedLinks[lid] {
				r.failedLinks[lid] = true
				added = append(added, lid)
			}
		}
	}
	if _, _, err := r.degradedGraph(); err != nil {
		r.deadNodes[dead] = false
		for _, lid := range added {
			r.failedLinks[lid] = false
		}
		return err
	}
	for _, lid := range added {
		r.Net.FailLink(lid)
	}
	// The dead node stops sending instantly: drop its sender state so
	// armed pacing events become no-ops. In a sharded run only the dead
	// node's owner shard holds its state.
	if node := r.nodes[dead]; node != nil {
		for len(node.flows) > 0 {
			r.retire(node.flows[0])
		}
	}
	r.failSeq++
	r.Net.Eng.After(detection, r.rerouteNow)
	return nil
}

// RepairLink returns both directions of the cable between a and b to
// service — the recovery half of §3.2: after `detection` (topology
// discovery runs for repairs exactly as for failures) every node switches
// back to the re-expanded fabric and re-announces its flows. Cables of a
// crashed node cannot be repaired while the node is dead.
func (r *R2C2) RepairLink(a, b topology.NodeID, detection simtime.Time) error {
	if _, ok := r.Net.G.LinkBetween(a, b); ok && (r.deadNodes[a] || r.deadNodes[b]) {
		return fmt.Errorf("sim: cannot repair link %d-%d of a failed node", a, b)
	}
	var repaired []topology.LinkID
	for _, pair := range [][2]topology.NodeID{{a, b}, {b, a}} {
		lid, ok := r.Net.G.LinkBetween(pair[0], pair[1])
		if !ok || !r.failedLinks[lid] {
			continue
		}
		r.failedLinks[lid] = false
		repaired = append(repaired, lid)
	}
	if len(repaired) == 0 {
		return fmt.Errorf("sim: no failed link between %d and %d", a, b)
	}
	for _, lid := range repaired {
		r.Net.RepairLink(lid)
	}
	r.failSeq++
	r.Net.Eng.After(detection, r.rerouteNow)
	return nil
}

// rerouteNow is the detection-fire callback shared by every fault
// injection: it recomputes the degraded fabric from the CURRENT failure
// state and swaps it in. The epoch guard makes callbacks whose injections
// were already covered by a later-injected, earlier-firing reroute no-op.
func (r *R2C2) rerouteNow() {
	if r.sh != nil {
		r.sh.ctrl++ // control event: fires once in every shard
	}
	if r.reroutedSeq >= r.failSeq {
		return // a newer reroute already covers this injection
	}
	r.reroutedSeq = r.failSeq
	r.reroute(r.fabrics.get(r.FailureReroutes, func() fabric {
		sub, mapping, err := r.degradedGraph()
		if err != nil {
			// Every injection validated the union it created, and connectivity
			// is monotone in the failed set.
			panic(fmt.Sprintf("sim: degraded fabric invalid at detection time: %v", err))
		}
		return fabric{
			tab:     routing.NewTable(sub),
			fib:     topology.NewBroadcastFIB(sub, r.Cfg.TreesPerSource, r.Cfg.Seed),
			linkMap: mapping,
		}
	}))
}

// reroute swaps in the degraded fabric and re-announces every live flow.
func (r *R2C2) reroute(f fabric) {
	r.FailureReroutes++
	r.gen++ // invalidate interned routes computed over the old fabric
	// Purge flows involving dead nodes from every view and abandon their
	// senders (a dead node's own went with it) before re-announcing: no view
	// may keep bandwidth for them, and no announcement may route to them.
	r.vis.Purge(r.deadNodes)
	r.install(f)
	// "Upon detecting a failure, nodes broadcast information about all
	// their ongoing flows" (§3.2).
	for _, node := range r.nodes {
		if node == nil || r.deadNodes[node.id] {
			continue
		}
		for i := len(node.flows) - 1; i >= 0; i-- {
			if sf := node.flows[i]; r.deadNodes[sf.info.Dst] {
				r.retire(sf)
			}
		}
		for _, sf := range node.flows {
			r.broadcast(node, sf.info.StartBroadcast(r.pickTree(node)))
		}
	}
}

// Ledger returns the flow records by ID, for inspection and results
// collection. The map is built on every call.
func (r *R2C2) Ledger() map[wire.FlowID]*FlowRecord { return r.flows.ledger() }

// sender returns the sender of a flow that is live at one of this instance's
// nodes, nil for any other flow.
func (r *R2C2) sender(id wire.FlowID) *senderFlow {
	if slot := r.flows.get(id); slot != nil {
		return slot.st.send
	}
	return nil
}

// retire takes a flow off its source node: it has finished, or a failure
// abandoned it. Pacing and timeout events still scheduled for it find it
// dead.
func (r *R2C2) retire(sf *senderFlow) {
	sf.live = false
	node := sf.node
	i := slices.Index(node.flows, sf)
	node.flows = slices.Delete(node.flows, i, i+1)
	r.flows.get(sf.info.ID).st.send = nil
}

// View returns a snapshot of a node's traffic-matrix view, built from its
// Visibility column (for tests and inspection).
func (r *R2C2) View(node topology.NodeID) *core.View {
	v := core.NewView()
	for _, info := range r.vis.AppendFlows(nil, r.nodes[node].col) {
		v.AddFlow(info)
	}
	return v
}

// StartFlow begins a flow of sizeBytes from src to dst at the current
// simulated time: the sender updates its own view, broadcasts the start
// event, and starts transmitting immediately (§3.1) — at line rate until
// the first recomputation covers the flow, with the headroom absorbing the
// transient (§3.3.2).
func (r *R2C2) StartFlow(src, dst topology.NodeID, sizeBytes int64, weight, priority uint8) wire.FlowID {
	return r.StartHostLimitedFlow(src, dst, sizeBytes, weight, priority, 0)
}

// StartHostLimitedFlow is StartFlow for a flow whose application cannot
// exceed demandBits bits/s (§3.3.2, "Host-limited flows"): the demand is
// carried in the start broadcast, every node allocates min(fair share,
// demand), and the sender additionally paces at the demand. demandBits <= 0
// means network-limited.
func (r *R2C2) StartHostLimitedFlow(src, dst topology.NodeID, sizeBytes int64, weight, priority uint8, demandBits float64) wire.FlowID {
	if src == dst || sizeBytes <= 0 {
		panic("sim: degenerate flow")
	}
	if weight == 0 {
		weight = 1
	}
	node := r.nodes[src]
	if node.rng == nil {
		node.rng = routing.NewStream(r.Cfg.Seed, int64(src)) // private route-sampling stream
	}
	slot := r.flows.open(src, dst, sizeBytes, r.Net.Eng.Now())
	id := slot.rec.ID
	if r.deadNodes[src] || r.deadNodes[dst] {
		// Abandoned at birth: a crashed endpoint can neither send nor
		// receive. The flow keeps its record (it stays incomplete) so
		// workload replays account for it.
		return id
	}
	demand := core.UnlimitedDemand
	if demandBits > 0 {
		demand = core.KbpsDemand(demandBits)
	}
	info := core.FlowInfo{
		ID: id, Src: src, Dst: dst,
		Weight: weight, Priority: priority,
		DemandKbps: demand,
		Protocol:   r.Cfg.Protocol,
	}
	initial := r.Net.Cfg.LinkGbps * 1e9
	if demandBits > 0 && demandBits < initial {
		initial = demandBits
	}
	sf := &senderFlow{
		node: node, live: true,
		info: info, remaining: sizeBytes, rate: initial, demand: demandBits,
		size:      sizeBytes,
		started:   r.Net.Eng.Now(),
		totalPkts: uint32((sizeBytes + MaxPayload - 1) / MaxPayload),
	}
	slot.st.send = sf
	node.flows = append(node.flows, sf)
	r.vis.Hold(node.col, info)
	r.broadcast(node, info.StartBroadcast(r.pickTree(node)))
	r.armSender(sf)
	return id
}

// UpdateDemand re-announces a live flow's demand (the sender-side estimator
// of §3.3.2 Eq. (1) would drive this) so all nodes allocate demand-aware.
// Unknown or finished flows are ignored.
func (r *R2C2) UpdateDemand(id wire.FlowID, demandBits float64) {
	sf := r.sender(id)
	if sf == nil {
		return
	}
	node := sf.node
	sf.demand = demandBits
	if demandBits > 0 {
		sf.info.DemandKbps = core.KbpsDemand(demandBits)
	} else {
		sf.info.DemandKbps = core.UnlimitedDemand
	}
	r.vis.Hold(node.col, sf.info)
	r.broadcast(node, sf.info.DemandBroadcast(r.pickTree(node)))
}

// SetProtocol re-assigns a live flow's routing protocol (the §3.4 selection
// mechanism) and broadcasts the change. Unknown flows are ignored.
func (r *R2C2) SetProtocol(id wire.FlowID, p routing.Protocol) {
	sf := r.sender(id)
	if sf == nil {
		return
	}
	node := sf.node
	sf.info.Protocol = p
	r.vis.Hold(node.col, sf.info)
	r.broadcast(node, sf.info.RouteChangeBroadcast(r.pickTree(node)))
}

func (r *R2C2) pickTree(node *r2c2Node) uint8 {
	t := node.nextTree
	node.nextTree = (node.nextTree + 1) % uint8(r.Cfg.TreesPerSource)
	return t
}

// broadcast applies an event locally and floods it along the chosen tree.
func (r *R2C2) broadcast(node *r2c2Node, b *wire.Broadcast) {
	pkt := r.Net.newPacket()
	pkt.Kind = KindBroadcast
	pkt.SizeBytes = BroadcastBytes
	pkt.Flow = b.Flow()
	pkt.Src = topology.NodeID(b.Src)
	pkt.Bcast = b
	r.Net.InjectBroadcast(node.id, pkt)
}

func (r *R2C2) broadcastHops(at topology.NodeID, pkt *Packet) []topology.LinkID {
	// The hops land in a buffer reused across lookups: forwardBroadcast
	// consumes them before the next lookup, and a drop on the way only arms
	// or exports a reflood (onDrop).
	hops, ok := r.Fib.AppendNextHops(r.bcastHops[:0], pkt.Src, pkt.Bcast.Tree, at)
	if !ok {
		// A reroute swapped the FIB underneath an in-flight broadcast: the
		// new trees need not visit `at` on this tree, and a dead origin has
		// no trees at all. The copy already delivered here stands; the
		// flood just stops (§3.2's re-announce resynchronises any views
		// that missed it).
		return nil
	}
	r.bcastHops = hops // grows to the widest fan-out, once
	if r.linkMap != nil {
		// Degraded fabric: translate to physical ports in place.
		for i, lid := range hops {
			hops[i] = r.linkMap[lid]
		}
	}
	return hops
}

// armSender schedules the flow's next packet transmission according to its
// token-bucket rate.
func (r *R2C2) armSender(sf *senderFlow) {
	if sf.armed || sf.rate <= 0 {
		return
	}
	if r.Cfg.Reliable {
		if sf.nextChunk >= sf.totalPkts {
			return // all sent; waiting for acks or an RTO pull-back
		}
	} else if sf.remaining <= 0 {
		return
	}
	sf.armed = true
	r.Net.Eng.after(0, evSend, sf)
}

// fillPath sets pkt.Path to the flow's source route, already translated to
// physical ports. Deterministic protocols (DOR) intern the route on the
// flow and share it by reference; randomised ones sample per packet into
// the packet's recycled scratch buffer.
func (r *R2C2) fillPath(node *r2c2Node, pkt *Packet, sf *senderFlow) {
	if sf.info.Protocol == routing.DOR {
		if sf.route == nil || sf.routeGen != r.gen {
			sf.route = r.Tab.AppendPath(nil, routing.DOR, sf.info.Src, sf.info.Dst, node.rng)
			r.physInPlace(sf.route)
			sf.routeGen = r.gen
		}
		pkt.Path = sf.route
		return
	}
	pkt.scratch = r.Tab.AppendPath(pkt.scratch[:0], sf.info.Protocol, sf.info.Src, sf.info.Dst, node.rng)
	r.physInPlace(pkt.scratch)
	pkt.Path = pkt.scratch
}

func (r *R2C2) sendNext(sf *senderFlow) {
	node := sf.node
	sf.armed = false
	if !sf.live {
		return // abandoned (node failure purge) or already finished
	}
	if sf.rate <= 0 {
		return // re-armed by the next recomputation
	}
	var payload int64
	var seq uint32
	if r.Cfg.Reliable {
		if sf.nextChunk >= sf.totalPkts {
			return
		}
		seq = sf.nextChunk
		payload = sf.chunkPayload(seq)
		if seq < sf.seq {
			r.Retransmissions++ // re-sending a chunk transmitted before
		}
		sf.nextChunk++
		if sf.nextChunk > sf.seq {
			sf.seq = sf.nextChunk // high-water mark of chunks ever sent
		}
	} else {
		if sf.remaining <= 0 {
			return
		}
		payload = MaxPayload
		if sf.remaining < payload {
			payload = sf.remaining
		}
		seq = sf.seq
		sf.seq++
		sf.remaining -= payload
	}
	size := int(payload) + DataHeaderBytes
	pkt := r.Net.newPacket()
	pkt.Kind = KindData
	pkt.SizeBytes = size
	pkt.Flow = sf.info.ID
	pkt.Src = sf.info.Src
	pkt.Dst = sf.info.Dst
	pkt.Seq = seq
	pkt.Payload = int(payload)
	// Carried so a receiving shard can open the flow's delivery record
	// lazily (receiveData); inert in serial runs.
	pkt.flowSize = sf.size
	pkt.flowStart = sf.started
	r.fillPath(node, pkt, sf)
	r.Net.Inject(pkt)

	if r.Cfg.Reliable {
		r.armRTO(sf)
		if sf.nextChunk >= sf.totalPkts {
			return // everything in flight; completion is ack-driven
		}
	} else if sf.remaining <= 0 {
		// Sender is done: announce the finish so capacity is reallocated
		// (§3.1) and drop the flow from the local view.
		r.finishSender(node, sf)
		return
	}
	gap := simtime.Time(float64(size*8) / sf.paceRate() * float64(simtime.Second))
	if gap < 1 {
		gap = 1
	}
	sf.armed = true
	r.Net.Eng.after(gap, evSend, sf)
}

// finishSender retires a flow at its source, which holds the finish (it
// applies none of its own broadcasts), and broadcasts the finish.
func (r *R2C2) finishSender(node *r2c2Node, sf *senderFlow) {
	r.flows.get(sf.info.ID).rec.SenderDone = true
	r.vis.Finish(node.col, sf.info.ID)
	r.retire(sf)
	r.broadcast(node, sf.info.FinishBroadcast(r.pickTree(node)))
}

// armRTO starts the retransmission timer for a reliable flow.
func (r *R2C2) armRTO(sf *senderFlow) {
	if sf.rtoArmed {
		return
	}
	sf.rtoArmed = true
	sf.rtoTimer = r.Net.Eng.after(r.Cfg.RTO, evRTO, sf)
}

// disarmRTO removes a pending retransmission timer from the schedule.
func (r *R2C2) disarmRTO(sf *senderFlow) {
	sf.rtoArmed = false
	r.Net.Eng.cancelTimer(sf.rtoTimer)
	sf.rtoTimer = timerHandle{}
}

// onRTO pulls the send pointer back to the cumulative-ack point: go-back-N
// retransmission, paced at the flow's allocated rate like any other data.
func (r *R2C2) onRTO(sf *senderFlow) {
	sf.rtoArmed = false
	if !sf.live || sf.cumAcked >= sf.totalPkts {
		return
	}
	sf.nextChunk = sf.cumAcked
	r.armRTO(sf)
	r.armSender(sf)
}

// receiveAck advances a reliable sender's cumulative ack state.
func (r *R2C2) receiveAck(pkt *Packet) {
	sf := r.sender(pkt.Flow)
	if sf == nil {
		return // flow already fully acked
	}
	if pkt.Seq > sf.cumAcked {
		sf.cumAcked = pkt.Seq
		if sf.cumAcked > sf.nextChunk {
			sf.nextChunk = sf.cumAcked
		}
		r.disarmRTO(sf)
		if sf.cumAcked >= sf.totalPkts {
			r.finishSender(sf.node, sf)
			return
		}
		r.armRTO(sf)
	}
}

// deliver handles packets reaching a node: broadcasts update its cells,
// data packets update receive state and flow records.
func (r *R2C2) deliver(at topology.NodeID, pkt *Packet) {
	if r.deadNodes[at] {
		return // a crashed node processes nothing (in-flight arrivals die here)
	}
	switch pkt.Kind {
	case KindBroadcast:
		if pkt.Bcast.Event == wire.EventFlowFinish && topology.NodeID(pkt.Bcast.Dst) == at {
			// Reliable receivers keep per-flow state past completion so they
			// can re-ack a lost final ack; the finish broadcast retires it.
			// Guard on Done: a 16-byte finish broadcast can outrun the last
			// queued data packets (it is sent when the sender finishes, and
			// in reliable mode only after full acking, but stray orderings
			// must not wipe live receive state).
			if slot := r.flows.get(pkt.Bcast.Flow()); slot != nil && slot.rec.Done {
				slot.st.recv = nil
			}
		}
		// The origin mutated its own view before broadcasting (§3.1).
		if topology.NodeID(pkt.Bcast.Src) != at {
			r.vis.Apply(r.nodes[at].col, pkt.Bcast)
		}
	case KindData:
		r.receiveData(at, pkt)
	case KindAck:
		r.receiveAck(pkt)
	}
}

func (r *R2C2) receiveData(at topology.NodeID, pkt *Packet) {
	slot := r.flows.get(pkt.Flow)
	if slot == nil {
		if r.sh == nil || pkt.flowSize <= 0 {
			return // not a flow of this stack (stray traffic)
		}
		// Cross-shard flow: the source shard opened the authoritative
		// record; this shard opens a receive-side record from the
		// packet-carried metadata. The merge (shard.go) folds its
		// delivery fields back into the source record.
		slot = r.flows.openRecv(pkt.Flow, pkt.Src, pkt.Dst, pkt.flowSize, pkt.flowStart)
	}
	rec, rs := slot.rec, slot.st.recv
	if rs == nil {
		rs = &reorderState{}
		slot.st.recv = rs
	}
	if rs.accept(pkt.Seq) {
		rec.BytesRcvd += int64(pkt.Payload)
	}
	r.Reorder.Add(rs.buffered)

	if !rec.Done && rec.BytesRcvd >= rec.SizeBytes {
		r.flows.finish(rec, r.Net.Eng.Now())
		if !r.Cfg.Reliable {
			slot.st.recv = nil
		}
	}
	if r.Cfg.Reliable && !r.deadNodes[pkt.Src] {
		// Cumulative acknowledgement, solely for reliability (§6): routed
		// minimally and deterministically back to the sender, along a route
		// interned once per flow on the receive state. Rebuilds after a
		// reroute go into a fresh buffer — in-flight acks share the old
		// backing array by reference and must keep their pre-failure
		// snapshot (same reason fillPath's DOR branch allocates anew). A
		// crashed source has no sender left to ack, and after the reroute
		// no route back to it.
		if rs.ackPath == nil || rs.ackGen != r.gen {
			rs.ackPath = append([]topology.LinkID(nil), r.Tab.Phi(routing.DOR, pkt.Dst, pkt.Src).Links...)
			r.physInPlace(rs.ackPath)
			rs.ackGen = r.gen
		}
		ack := r.Net.newPacket()
		ack.Kind = KindAck
		ack.SizeBytes = AckBytes
		ack.Flow = pkt.Flow
		ack.Src = pkt.Dst
		ack.Dst = pkt.Src
		ack.Seq = rs.next
		ack.Path = rs.ackPath
		r.Net.Inject(ack)
	}
}

// recomputeTick is the periodic batch recomputation (§3.3.2): every node
// this instance owns recomputes its flows' rates from its own view, and
// nodes whose views are identical (the common case once broadcasts settle)
// share a single allocator run, keyed by the view digest; a node's sorted
// flow list is built only for a digest the tick has not seen. A rate is a pure
// function of the view's flow set (core.RateComputer), so a shard of the
// rack partition runs this same tick over its own nodes and paces them
// exactly as one shard would (DESIGN.md §15). There it also counts itself
// as a control event, marks where its settled view hashes start, so that
// the orchestrator can count Recomputations tick by tick, and charges its
// wall time to the shard's control-plane total.
func (r *R2C2) recomputeTick() {
	var t0 int64
	if r.sh != nil {
		t0 = wallNs()
		r.sh.ctrl++ // the tick event fires once in every shard
		r.sh.tickStarts = append(r.sh.tickStarts, len(r.sh.tickHashes))
	}
	r.RecomputeRounds++
	if r.tickCache == nil {
		r.tickCache = make(map[uint64]*core.Allocation)
	}
	clear(r.tickCache) // reuse the buckets across ticks
	for _, node := range r.nodes {
		if node == nil || len(node.flows) == 0 {
			continue
		}
		h := r.vis.Digest(node.col)
		alloc, ok := r.tickCache[h]
		if !ok {
			r.sum.Flows, r.sum.Hash = r.vis.AppendFlows(r.sum.Flows[:0], node.col), h
			alloc = r.rc.ComputeSummary(&r.sum)
			r.tickCache[h] = alloc
			r.Recomputations++
			if r.sh != nil {
				r.sh.tickHashes = append(r.sh.tickHashes, h)
			}
		}
		for _, sf := range node.flows {
			id := sf.info.ID
			sf.rate = alloc.Rate(id)
			if invariantsEnabled {
				// A multipath flow may exceed one link's rate (its φ sums
				// over parallel paths), but never the source's aggregate
				// injection bandwidth: out-degree × link capacity.
				injBits := float64(len(r.Tab.Graph().Out(sf.info.Src))) * r.Net.Cfg.LinkGbps * 1e9
				assertInvariant(sf.rate <= injBits*(1+1e-9),
					"flow %v paced at %v bits/s above source injection bandwidth %v bits/s", id, sf.rate, injBits)
			}
			r.armSender(sf)
		}
	}
	r.Net.Eng.After(r.Cfg.Recompute, r.recomputeTick)
	if r.sh != nil {
		r.sh.ctrlNs += wallNs() - t0
	}
}
