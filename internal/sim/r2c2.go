package sim

import (
	"math/rand"
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
	Headroom  float64          // bandwidth headroom (paper default 5%)
	Recompute simtime.Time     // rate recomputation interval ρ (paper: 500 µs)
	Protocol  routing.Protocol // routing protocol for new flows (paper: minimal)
	Seed      int64

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
	if c.RTO == 0 {
		c.RTO = simtime.Millisecond
	}
}

// treesPerSource is how many broadcast trees each source floods over.
const treesPerSource = 4

// R2C2 is the full R2C2 stack running over the simulated fabric: flow-event
// broadcasts keep every node's view current; every node periodically
// recomputes the rates of the flows it sources and paces them with one
// token-bucket rate limiter per flow; packets are source-routed with
// per-packet paths drawn from each flow's routing protocol (§3).
type R2C2 struct {
	Net *Network
	// Fabric is the current fault generation's routing state: Tab, Fib and,
	// once a detection has swapped in a degraded fabric, the LinkMap back
	// to physical ports.
	core.Fabric
	Cfg R2C2Config
	// Faults is the failure state (§3.2, "Failures"), changed through
	// FailLink, FailNode and RepairLink.
	Faults *core.Faults

	rc    *core.RateComputer
	nodes []*r2c2Node
	flows *flowTable[r2c2Flow]

	// sh is the shard context when this R2C2 instance drives one shard of
	// a partition (shard.go): nil when one shard owns the whole fabric. Control events that fire
	// in every shard (recomputation ticks, fault injections, reroutes) tick
	// its counter so the merged Results can subtract the duplicates.
	sh *shardCtx

	// fabrics builds the degraded fabric of each reroute generation once for
	// every R2C2 instance of the run (one per shard, so possibly a single user).
	fabrics *fabricCache

	// FailureReroutes counts fabric rebuilds. It is the route generation:
	// interned per-flow routes and ack paths tagged with an older one are
	// recomputed (a reroute swapped in a new Tab/LinkMap underneath them).
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

// r2c2Node is one node's protocol state, mutated only by its shard's engine
// goroutine. Its live flows are in creation order, which is ascending
// flow-ID order: recomputation ticks and reroutes schedule events flow by
// flow, and scheduling order is the (at, seq) FIFO tie-break, so the walk
// has to be the same in every run.
type r2c2Node struct {
	core.Node[*senderFlow]
	// rng is the node's private route-sampling stream (rng.go), created on
	// the node's first sourced flow. Per-node streams keep route sampling
	// independent of global event interleaving, so the sharded engine draws
	// the same routes as the serial one.
	rng *rand.Rand
}

type senderFlow struct {
	node      *r2c2Node // the source: where pacing and timeout events run
	info      core.FlowInfo
	remaining int64
	rate      float64 // bits/s, as allocated
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

// Info returns the flow's announced entry.
func (sf *senderFlow) Info() *core.FlowInfo { return &sf.info }

// chunkPayload returns the payload size of chunk i.
func (sf *senderFlow) chunkPayload(i uint32) int64 {
	off := int64(i) * MaxPayload
	left := sf.size - off
	if left > MaxPayload {
		return MaxPayload
	}
	return left
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
	core.Fabric
	taken int
}

func (c *fabricCache) get(gen uint64, build func() core.Fabric) core.Fabric {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.gens[gen]
	if e == nil {
		if c.gens == nil {
			c.gens = make(map[uint64]*cachedFabric)
		}
		e = &cachedFabric{Fabric: build()}
		c.gens[gen] = e
	}
	if e.taken++; e.taken == c.users {
		delete(c.gens, gen)
	}
	return e.Fabric
}

// NewR2C2 wires the transport into a network. It installs the Deliver and
// broadcast-FIB hooks, so one Network hosts exactly one transport.
func NewR2C2(net *Network, tab *routing.Table, cfg R2C2Config) *R2C2 {
	cfg.defaults()
	return newR2C2(net, core.NewFabric(tab, treesPerSource, cfg.Seed), &fabricCache{users: 1}, cfg)
}

// newR2C2 is NewR2C2 over a caller-built intact fabric and reroute cache
// (the sharded engine passes the same two to every shard's instance); cfg
// already has its defaults applied.
func newR2C2(net *Network, fab core.Fabric, fabrics *fabricCache, cfg R2C2Config) *R2C2 {
	r := &R2C2{
		Net:     net,
		Cfg:     cfg,
		Faults:  core.NewFaults(fab),
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
		r.nodes[i] = &r2c2Node{Node: core.NewNode[*senderFlow](topology.NodeID(i), &r.vis, owned, treesPerSource)}
		owned++
	}
	r.vis = core.NewVisibility(owned)
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
	nb := r.nodes[origin].Retransmit(*b)
	r.broadcast(r.nodes[origin], &nb, retries)
}

// install swaps in a fabric generation's routing state. The rate computer
// derives its φ-vectors from the table, so it restarts with it.
func (r *R2C2) install(f core.Fabric) {
	r.Fabric = f
	r.rc = core.NewRateComputer(r.Tab, r.Net.Cfg.LinkGbps*1e9, r.Cfg.Headroom)
}

// FailLink fails the cable between a and b (§3.2): its ports lose every
// packet at once, and after `detection`, the topology-discovery delay,
// every node switches to the degraded fabric and re-announces its flows,
// resynchronising views that missed events. It errors where
// core.Faults.FailCable does.
func (r *R2C2) FailLink(a, b topology.NodeID, detection simtime.Time) error {
	lids, err := r.Faults.FailCable(a, b)
	return r.inject(lids, err, r.Net.FailLink, detection)
}

// FailNode kills a node (§3.2): its links go dark and its senders stop at
// once; after `detection` the survivors switch fabric, purge its flows from
// their views and re-announce their own. Its flows stay incomplete.
func (r *R2C2) FailNode(dead topology.NodeID, detection simtime.Time) error {
	lids, err := r.Faults.FailNode(dead)
	// Armed pacing events find the senders gone. In a sharded run only the
	// node's owner shard holds them.
	if err == nil && r.nodes[dead] != nil {
		_, deadSet := r.Faults.State()
		for _, sf := range r.nodes[dead].Abandon(deadSet) {
			r.retire(sf)
		}
	}
	return r.inject(lids, err, r.Net.FailLink, detection)
}

// RepairLink brings the cable between a and b back (§3.2's recovery half):
// after `detection` every node switches to the re-expanded fabric and
// re-announces its flows. A dead node's cables stay down.
func (r *R2C2) RepairLink(a, b topology.NodeID, detection simtime.Time) error {
	lids, err := r.Faults.RepairCable(a, b)
	return r.inject(lids, err, r.Net.RepairLink, detection)
}

// SetLinkDropProb installs a random-drop probability p in [0,1] on both
// directions of the cable between a and b. p = 0 removes the loss.
func (r *R2C2) SetLinkDropProb(a, b topology.NodeID, p float64) error {
	lids, err := r.Faults.LossyCable(a, b, p)
	for _, lid := range lids {
		r.Net.SetLinkDropProb(lid, p)
	}
	return err
}

// inject applies a change the failure state accepted to its ports and arms
// its detection.
func (r *R2C2) inject(lids []topology.LinkID, err error, port func(topology.LinkID), detection simtime.Time) error {
	if err != nil {
		return err
	}
	for _, lid := range lids {
		port(lid)
	}
	r.Net.Eng.After(detection, r.reroute)
	return nil
}

// reroute is the detection-fire callback of every fault injection: unless
// a later-injected, earlier-firing reroute already covered its injection,
// it swaps in the fabric of the CURRENT failure state, never a snapshot
// taken at injection. Flows with a dead endpoint leave every view and their
// senders stop before anything is re-announced: no view may keep bandwidth
// for them, and no announcement may route to them.
func (r *R2C2) reroute() {
	if r.sh != nil {
		r.sh.ctrl++ // control event: fires once in every shard
	}
	if !r.Faults.Due() {
		return
	}
	f := r.fabrics.get(r.FailureReroutes, r.Faults.Fabric)
	r.FailureReroutes++ // invalidates interned routes computed over the old fabric
	r.vis.Purge(f.Dead)
	r.install(f)
	for _, node := range r.nodes {
		if node == nil {
			continue
		}
		abandoned, starts := node.Reannounce(f.Dead)
		for _, sf := range abandoned {
			r.retire(sf)
		}
		for i := range starts {
			r.broadcast(node, &starts[i], 0)
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

// retire drops the sender of a flow its node has let go of: it has
// finished, or a failure abandoned it. Pacing and timeout events still
// scheduled for it find it gone.
func (r *R2C2) retire(sf *senderFlow) { r.flows.get(sf.info.ID).st.send = nil }

// View returns a snapshot of a node's traffic-matrix view, built from its
// Visibility column (for tests and inspection).
func (r *R2C2) View(node topology.NodeID) *core.View {
	v := core.NewView()
	for _, info := range r.vis.AppendFlows(nil, r.nodes[node].Col) {
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
	if r.Faults.Dead(src) || r.Faults.Dead(dst) {
		// Abandoned at birth: a crashed endpoint can neither send nor
		// receive. The flow keeps its record (it stays incomplete) so
		// workload replays account for it.
		return id
	}
	info := core.FlowInfo{
		ID: id, Src: src, Dst: dst,
		Weight: weight, Priority: priority,
		DemandKbps: core.UnlimitedDemand,
		Protocol:   r.Cfg.Protocol,
	}
	sf := &senderFlow{
		node: node,
		info: info, remaining: sizeBytes, rate: r.Net.Cfg.LinkGbps * 1e9,
		size:      sizeBytes,
		started:   r.Net.Eng.Now(),
		totalPkts: uint32((sizeBytes + MaxPayload - 1) / MaxPayload),
	}
	slot.st.send = sf
	b := node.Start(sf)
	r.broadcast(node, &b, 0)
	r.armSender(sf)
	return id
}

// broadcast floods one of node's broadcasts along its tree, after retries
// drops of it (§3.2 loss recovery). Every copy of the packet shares b.
func (r *R2C2) broadcast(node *r2c2Node, b *wire.Broadcast, retries uint8) {
	pkt := r.Net.newPacket()
	pkt.Kind = KindBroadcast
	pkt.SizeBytes = BroadcastBytes
	pkt.Flow = b.Flow()
	pkt.Src = node.ID
	pkt.Bcast = b
	pkt.Retries = retries
	r.Net.InjectBroadcast(node.ID, pkt)
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
	r.PhysInPlace(hops)
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
		if sf.route == nil || sf.routeGen != r.FailureReroutes {
			sf.route = r.Tab.AppendPath(nil, routing.DOR, sf.info.Src, sf.info.Dst, node.rng)
			r.PhysInPlace(sf.route)
			sf.routeGen = r.FailureReroutes
		}
		pkt.Path = sf.route
		return
	}
	pkt.scratch = r.Tab.AppendPath(pkt.scratch[:0], sf.info.Protocol, sf.info.Src, sf.info.Dst, node.rng)
	r.PhysInPlace(pkt.scratch)
	pkt.Path = pkt.scratch
}

func (r *R2C2) sendNext(sf *senderFlow) {
	node := sf.node
	sf.armed = false
	if r.sender(sf.info.ID) != sf {
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
	gap := simtime.Time(float64(size*8) / sf.rate * float64(simtime.Second))
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
	b, ok := node.Finish(sf)
	r.retire(sf)
	if ok {
		r.broadcast(node, &b, 0)
	}
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
	if r.sender(sf.info.ID) != sf || sf.cumAcked >= sf.totalPkts {
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
	if r.Faults.Dead(at) {
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
		r.nodes[at].Receive(pkt.Bcast)
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
	if r.Cfg.Reliable && !r.Faults.Dead(pkt.Src) {
		// Cumulative acknowledgement, solely for reliability (§6): routed
		// minimally and deterministically back to the sender, along a route
		// interned once per flow on the receive state. Rebuilds after a
		// reroute go into a fresh buffer — in-flight acks share the old
		// backing array by reference and must keep their pre-failure
		// snapshot (same reason fillPath's DOR branch allocates anew). A
		// crashed source has no sender left to ack, and after the reroute
		// no route back to it.
		if rs.ackPath == nil || rs.ackGen != r.FailureReroutes {
			rs.ackPath = append([]topology.LinkID(nil), r.Tab.Phi(routing.DOR, pkt.Dst, pkt.Src).Links...)
			r.PhysInPlace(rs.ackPath)
			rs.ackGen = r.FailureReroutes
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
// function of the view's flow set (core.RateComputer), so a shard of a
// partitioned run runs this same tick over its own nodes and paces them
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
		if node == nil || len(node.Flows()) == 0 {
			continue
		}
		h := r.vis.Digest(node.Col)
		alloc, ok := r.tickCache[h]
		if !ok {
			r.sum.Flows, r.sum.Hash = r.vis.AppendFlows(r.sum.Flows[:0], node.Col), h
			alloc = r.rc.ComputeSummary(&r.sum)
			r.tickCache[h] = alloc
			r.Recomputations++
			if r.sh != nil {
				r.sh.tickHashes = append(r.sh.tickHashes, h)
			}
		}
		for _, sf := range node.Flows() {
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
