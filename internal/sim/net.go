package sim

import (
	"fmt"
	"math/rand"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// PacketKind classifies simulated packets.
type PacketKind uint8

// Simulated packet kinds, mirroring the wire formats.
const (
	KindData PacketKind = iota
	KindBroadcast
	KindAck
)

// Sizes of simulated packets, matching the wire formats of §4.2.
const (
	DataHeaderBytes = wire.DataHeaderSize
	BroadcastBytes  = wire.BroadcastSize
	AckBytes        = wire.AckSize
	MTU             = 1500 // max on-wire packet size
	MaxPayload      = MTU - DataHeaderBytes
)

// Packet is a simulated packet. Data and ack packets carry their full
// source route; broadcast packets carry the event payload and are forwarded
// via the broadcast FIB.
//
// Packets are recycled through the owning Network's per-run free list:
// Inject and InjectBroadcast consume the packet, and the Network releases
// it back to the pool when it is delivered or dropped. Callers must not
// retain or reuse a packet after handing it to the Network.
type Packet struct {
	Kind      PacketKind
	SizeBytes int // on-wire bytes
	Flow      wire.FlowID
	Src, Dst  topology.NodeID
	Seq       uint32 // packet index within the flow (data/ack)
	Payload   int    // payload bytes carried (data)

	Path []topology.LinkID // source route (data/ack); read-only once injected
	Hop  int               // index of the next link in Path

	next *Packet // the packet behind this one in its port queue; nil outside one

	Bcast *wire.Broadcast // event payload (broadcast)
	Retx  bool            // retransmission marker (TCP accounting)
	// Retries counts how many times this broadcast has been re-flooded
	// after a drop (§3.2: the dropping node informs the origin, which
	// retransmits).
	Retries uint8

	// flowSize/flowStart mirror the flow's ledger entry on data packets of
	// sharded runs: the receiving shard opens its receive-side flow record
	// lazily from the first data packet (the start event lives in the
	// source's shard), so the metadata must travel with the data.
	flowSize  int64
	flowStart simtime.Time

	// scratch is the packet's private route-sampling buffer, recycled with
	// the packet. Randomised protocols sample into it and point Path at it;
	// interned per-flow routes set Path directly, leaving scratch parked so
	// its capacity survives runs that mix sampled and interned routes.
	scratch []topology.LinkID
	// slab back-links the packet to the arena segment it was carved from
	// (arena.go); slabIdx is its slot. Both survive freePacket's zeroing.
	slab    *pktSlab
	slabIdx uint8
	// pooled is the use-after-free debug tag: true only while the packet
	// sits free in its slab. Hot-path touches assert it is false when
	// invariantsEnabled (-tags debug).
	pooled bool
}

// NetConfig describes the fabric the simulator models.
type NetConfig struct {
	LinkGbps   float64      // per-link bandwidth (paper: 10 Gbps)
	PropDelay  simtime.Time // per-hop propagation latency (paper: 100 ns)
	QueueBytes int          // drop-tail limit per output port
	// PerFlowQueues switches ports to the idealised PFQ discipline:
	// per-flow queues, round-robin service and hop-by-hop back-pressure
	// with PFQBufferPackets per flow per node (§5.2's upper-bound baseline).
	PerFlowQueues    bool
	PFQBufferPackets int
	// LossSeed seeds the random-drop RNGs used by SetLinkDropProb, keeping
	// lossy-link runs reproducible. Each lossy link draws from its own
	// stream (created on first use, so loss-free runs stay untouched):
	// per-link streams make a link's drop sequence independent of global
	// event interleaving, which is what lets every partition reproduce
	// one shard's drops exactly.
	LossSeed int64
	// InterRackPropDelay, when non-zero, is the propagation latency of
	// inter-rack links (ConnectRacks bridge cables, Clos leaf-spine
	// uplinks) — physically longer runs than the in-rack backplane. Zero
	// applies PropDelay fabric-wide. It also bounds the sharded engine's
	// conservative lookahead: a larger inter-rack delay buys larger epochs.
	InterRackPropDelay simtime.Time
}

func (c *NetConfig) defaults() {
	if c.LinkGbps == 0 {
		c.LinkGbps = 10
	}
	if c.PropDelay == 0 {
		c.PropDelay = 100 * simtime.Nanosecond
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = 1 << 20
	}
	if c.PFQBufferPackets == 0 {
		c.PFQBufferPackets = 4
	}
}

// PortStats accumulates per-output-port statistics.
type PortStats struct {
	MaxQueueBytes int
	EnqueuedPkts  uint64
	DroppedPkts   uint64
	SentBytes     uint64
}

// port is one output port: the transmit side of a directed link. It is
// serialising a packet while the clock is before freeAt, and it schedules an
// event for the end of a serialisation (evTxDone, the wake-up) only when a
// packet waits behind the one on the wire: a lone packet costs its arrival
// event and nothing else. PFQ ports always take the wake-up, because the
// end of a serialisation is also where the packet's buffer credit returns.
type port struct {
	id     topology.LinkID
	to     topology.NodeID
	dead   bool // failed link: everything sent here is lost
	wake   bool // an evTxDone is scheduled at freeAt
	queued int  // bytes across all queues

	freeAt  simtime.Time // end of the latest serialisation
	txStart simtime.Time // start of it: the wake-up's emission stamp
	txFlow  wire.FlowID  // PFQ: flow of the packet being serialised (its credit is released at freeAt)

	fifo pktQueue // FIFO discipline

	// PFQ discipline: the round-robin ring of the flows with packets queued
	// here, as indices into Network.pfq.
	rr     []int32
	rrNext int

	stats PortStats
}

// pktQueue is a FIFO of packets linked through Packet.next.
type pktQueue struct{ head, tail *Packet }

func (q *pktQueue) push(p *Packet) {
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
}

func (q *pktQueue) pop() *Packet {
	p := q.head
	q.head, p.next = p.next, nil
	if q.head == nil {
		q.tail = nil
	}
	return p
}

// pfqFlow is one flow's queue at one PFQ port. It is on the port's ring
// while the queue holds packets and on Network.pfqFree once it drains.
type pfqFlow struct {
	id wire.FlowID
	q  pktQueue
}

// pfqCredit is one flow's packet count charged to a node.
type pfqCredit struct {
	flow wire.FlowID
	n    int32
}

// Network simulates the fabric: forwarding, queueing and link timing.
// Transports plug in via the Deliver callback and inject via Inject.
// Fabric state belongs to the engine's goroutine.
type Network struct {
	G   *topology.Graph
	Eng *Engine
	Cfg NetConfig

	ports []*port

	// Deliver is invoked when a packet reaches its destination (data/ack)
	// or at every node a broadcast visits.
	Deliver func(at topology.NodeID, pkt *Packet)
	// NextBroadcastHops returns the links a broadcast is forwarded on from
	// `at` (the broadcast FIB lookup). Set by the R2C2 transport.
	NextBroadcastHops func(at topology.NodeID, pkt *Packet) []topology.LinkID
	// OnDrop, if set, observes drop-tail losses.
	OnDrop func(pkt *Packet, at topology.LinkID)

	// PFQ back-pressure state: per node, the flows with packets charged to
	// the node — those in its output queues plus those already in flight
	// toward it (credits are reserved when the upstream port begins
	// transmission, so concurrent senders cannot overshoot the bound). A
	// flow leaves the list at zero, so it is short and scanned.
	credits [][]pfqCredit
	// The ports' per-flow queue records, and those no ring holds.
	pfq     []pfqFlow
	pfqFree []int32
	// Kick is invoked when PFQ buffer space frees at a node, so blocked
	// senders located there can resume injection.
	Kick func(at topology.NodeID, flow wire.FlowID)

	totalDrops uint64
	// PktHops counts link traversals begun (every kind of packet): with the
	// port wake-ups, what Engine.Processed is made of on a packet workload.
	PktHops uint64
	// BcastBytesOnWire accumulates broadcast bytes across all link
	// traversals — the §3.2 / Figure 9 overhead metric.
	BcastBytesOnWire uint64

	// arena carves packets from fixed-size slabs (arena.go): delivered and
	// dropped packets recycle through their slab's free stack, keeping the
	// steady-state data path allocation-free, while slabs that drain after
	// a burst are released instead of pinning peak packet memory.
	arena pktArena

	// Random-loss state (fault injection): lossProb[lid] is the probability
	// a packet enqueued on lid is dropped, rolled against the link's own
	// RNG stream. nil until SetLinkDropProb is first called, so intact
	// runs pay nothing.
	lossProb []float64
	lossRng  []*rand.Rand

	// sh is the shard context when this Network is one shard of a sharded
	// run (shard.go): packets whose next hop belongs to another shard are
	// exported through its boundary queues instead of being scheduled
	// locally. nil when one shard owns the whole fabric.
	sh *shardCtx
}

// newPacket takes a zeroed packet slot from the arena. A recycled packet
// keeps its private scratch buffer, truncated to length zero, so route
// sampling reuses its capacity.
func (n *Network) newPacket() *Packet {
	p := n.arena.alloc()
	if invariantsEnabled {
		assertInvariant(p.pooled, "arena slot not marked pooled")
	}
	p.pooled = false
	return p
}

// freePacket zeroes pkt and returns its slot to the arena. Path is detached
// (shared interned routes must never be recycled); the scratch buffer and
// slab back-link stay with the packet.
func (n *Network) freePacket(p *Packet) {
	if invariantsEnabled {
		assertInvariant(!p.pooled, "packet double-free/use-after-free: kind %d flow %v seq %d", p.Kind, p.Flow, p.Seq)
	}
	scratch, slab, slabIdx := p.scratch, p.slab, p.slabIdx
	*p = Packet{}
	p.scratch = scratch[:0]
	p.slab, p.slabIdx = slab, slabIdx
	p.pooled = true
	n.arena.free(p)
}

// ArenaStats returns a snapshot of the packet arena's occupancy.
func (n *Network) ArenaStats() ArenaStats { return n.arena.stats() }

// NewNetwork builds the fabric simulator and registers it as the engine's
// typed-event receiver (one Network per Engine).
func NewNetwork(g *topology.Graph, eng *Engine, cfg NetConfig) *Network {
	cfg.defaults()
	n := &Network{G: g, Eng: eng, Cfg: cfg}
	if eng.net != nil && eng.net != n {
		panic("sim: engine already drives another network")
	}
	eng.net = n
	// A minimal path is at most the diameter, a Valiant detour (VLB) or WLB's
	// long way round a ring at most twice that.
	n.arena.pathCap = 2 * g.Diameter()
	if g.NumLinks() >= 1<<24 {
		panic("sim: more links than an event's 24-bit tie key can name")
	}
	n.ports = make([]*port, g.NumLinks())
	backing := make([]port, g.NumLinks()) // one slab for all port structs
	for lid := 0; lid < g.NumLinks(); lid++ {
		p := &backing[lid]
		p.id = topology.LinkID(lid)
		p.to = g.Link(topology.LinkID(lid)).To
		n.ports[lid] = p
	}
	if cfg.PerFlowQueues {
		n.credits = make([][]pfqCredit, g.Vertices())
	}
	return n
}

// PortStats returns the statistics of one output port.
func (n *Network) PortStats(lid topology.LinkID) PortStats { return n.ports[lid].stats }

// TotalDrops returns the number of packets lost to drop-tail overflow.
func (n *Network) TotalDrops() uint64 { return n.totalDrops }

// QueuedBytes returns the current queue occupancy of a port.
func (n *Network) QueuedBytes(lid topology.LinkID) int { return n.ports[lid].queued }

// BufCount returns the PFQ per-node buffer occupancy for a flow.
func (n *Network) BufCount(node topology.NodeID, flow wire.FlowID) int {
	if c := n.credit(node, flow); c != nil {
		return int(c.n)
	}
	return 0
}

// HasRoom reports whether node has PFQ buffer space for another packet of
// the flow. Always true in FIFO mode.
func (n *Network) HasRoom(node topology.NodeID, flow wire.FlowID) bool {
	return n.credits == nil || n.BufCount(node, flow) < n.Cfg.PFQBufferPackets
}

// credit returns the flow's entry in node's PFQ credit list, nil if the node
// holds none of its packets (or the network is FIFO).
func (n *Network) credit(node topology.NodeID, flow wire.FlowID) *pfqCredit {
	if n.credits != nil {
		for i := range n.credits[node] {
			if c := &n.credits[node][i]; c.flow == flow {
				return c
			}
		}
	}
	return nil
}

// charge takes one of node's PFQ credits for the flow.
func (n *Network) charge(node topology.NodeID, flow wire.FlowID) {
	if c := n.credit(node, flow); c != nil {
		c.n++
	} else {
		n.credits[node] = append(n.credits[node], pfqCredit{flow: flow, n: 1})
	}
}

// release returns k of node's PFQ credits for the flow — its packets there
// left on the wire, were dropped, or were lost with a failed port — and
// kicks the node's upstream ports and local senders, which may have been
// blocked on them. An entry whose count reaches zero leaves the list.
func (n *Network) release(node topology.NodeID, flow wire.FlowID, k int) {
	c := n.credit(node, flow)
	if c.n -= int32(k); c.n == 0 {
		cs := n.credits[node]
		*c = cs[len(cs)-1]
		n.credits[node] = cs[:len(cs)-1]
	}
	n.kickUpstream(node, flow)
}

// Inject places a packet into the output-port queue of the node it starts
// at (the first link of its path, or the broadcast origin's tree links).
// It returns false if the packet was dropped at enqueue. In PFQ mode the
// caller must check HasRoom first; Inject panics otherwise to surface
// transport bugs.
//
// Inject consumes pkt: the Network owns it from here on and recycles it at
// delivery or drop (on a false return it has already been recycled).
func (n *Network) Inject(pkt *Packet) bool {
	if pkt.Kind == KindBroadcast {
		panic("sim: broadcasts are injected with InjectBroadcast")
	}
	if pkt.Hop != 0 || len(pkt.Path) == 0 {
		panic(fmt.Sprintf("sim: Inject with hop=%d pathlen=%d", pkt.Hop, len(pkt.Path)))
	}
	from := n.G.Link(pkt.Path[0]).From
	if from != pkt.Src {
		panic("sim: packet path does not start at its source")
	}
	pkt.Hop = 1 // Path[0] is consumed here; arrivals consume Path[Hop]
	if n.credits != nil {
		// PFQ: the injected packet is charged to the source node; the
		// caller must have checked HasRoom.
		n.charge(from, pkt.Flow)
	}
	return n.enqueue(from, pkt.Path[0], pkt)
}

// InjectBroadcast delivers a broadcast locally at its origin and forwards
// copies along the origin's broadcast-tree links. Like Inject it consumes
// pkt (the forwarded copies are fresh pool packets sharing the Bcast
// payload, which is never pooled).
func (n *Network) InjectBroadcast(origin topology.NodeID, pkt *Packet) {
	if n.Deliver != nil {
		n.Deliver(origin, pkt)
	}
	n.forwardBroadcast(origin, pkt)
	n.freePacket(pkt)
}

func (n *Network) forwardBroadcast(at topology.NodeID, pkt *Packet) {
	if n.NextBroadcastHops == nil {
		return
	}
	for _, lid := range n.NextBroadcastHops(at, pkt) {
		cp := n.newPacket()
		cp.Kind = KindBroadcast
		cp.SizeBytes = pkt.SizeBytes
		cp.Flow = pkt.Flow
		cp.Src = pkt.Src
		cp.Bcast = pkt.Bcast
		cp.Retries = pkt.Retries
		n.BcastBytesOnWire += uint64(pkt.SizeBytes)
		n.enqueue(at, lid, cp)
	}
}

// FailLink kills a directed link: its queue is lost and every packet
// subsequently routed to it is dropped — the physical failure model of
// §3.2 ("Failures"). Detection and rerouting are the transport's job.
func (n *Network) FailLink(lid topology.LinkID) {
	p := n.ports[lid]
	if p.dead {
		return
	}
	p.dead = true
	p.queued = 0
	lost := 0
	for p.fifo.head != nil {
		n.freePacket(p.fifo.pop())
		lost++
	}
	// PFQ: the flows' queues go in ring order, each flow's credits at this
	// node with them. A dead port queues nothing, so the kicks the releases
	// make cannot touch its ring.
	from := n.G.Link(lid).From
	for _, ri := range p.rr {
		q, k := &n.pfq[ri].q, 0
		for q.head != nil {
			n.freePacket(q.pop())
			k++
		}
		lost += k
		n.pfqFree = append(n.pfqFree, ri)
		n.release(from, n.pfq[ri].id, k)
	}
	p.rr = p.rr[:0]
	p.stats.DroppedPkts += uint64(lost)
	n.totalDrops += uint64(lost)
}

// RepairLink brings a failed directed link back into service: packets
// routed onto it flow again. Rebuilding the routing state so traffic
// actually uses it again is the transport's job (R2C2.RepairLink).
func (n *Network) RepairLink(lid topology.LinkID) {
	n.ports[lid].dead = false
}

// LinkFailed reports whether a directed link has been failed.
func (n *Network) LinkFailed(lid topology.LinkID) bool { return n.ports[lid].dead }

// SetLinkDropProb installs a random-drop probability p in [0,1] on a
// directed link — the lossy-cable fault model. p = 0 removes the loss.
func (n *Network) SetLinkDropProb(lid topology.LinkID, p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("sim: drop probability %v out of [0,1]", p))
	}
	if n.lossProb == nil {
		if p == 0 {
			return
		}
		n.lossProb = make([]float64, len(n.ports))
		n.lossRng = make([]*rand.Rand, len(n.ports))
	}
	if p > 0 && n.lossRng[lid] == nil {
		n.lossRng[lid] = routing.NewStream(n.Cfg.LossSeed, int64(lid))
	}
	n.lossProb[lid] = p
}

// idle reports whether the port can start a transmission right now: nothing
// on the wire, and no wake-up about to pick the next packet itself.
func (p *port) idle(now simtime.Time) bool { return !p.wake && now >= p.freeAt }

// enqueue appends pkt to the drop-tail queue of the given output port and
// starts transmission if the port is idle; behind a serialisation in
// progress it makes sure the port wakes up when that ends.
func (n *Network) enqueue(at topology.NodeID, lid topology.LinkID, pkt *Packet) bool {
	p := n.ports[lid]
	if n.G.Link(lid).From != at {
		panic("sim: enqueue at wrong node")
	}
	// A failed port, a lossy cable's roll (fault injection) or a full FIFO
	// queue loses the packet, and in PFQ mode the credit it held here —
	// taken at injection or reserved by the upstream transmission — with it.
	if p.dead || n.lossProb != nil && n.lossProb[lid] > 0 && n.lossRng[lid].Float64() < n.lossProb[lid] ||
		!n.Cfg.PerFlowQueues && p.queued+pkt.SizeBytes > n.Cfg.QueueBytes {
		p.stats.DroppedPkts++
		n.totalDrops++
		if n.OnDrop != nil {
			n.OnDrop(pkt, lid)
		}
		flow := pkt.Flow
		n.freePacket(pkt)
		if n.Cfg.PerFlowQueues {
			n.release(at, flow, 1)
		}
		return false
	}
	if n.Cfg.PerFlowQueues {
		// The buffer charge was taken at injection (source) or reservation
		// (upstream transmission start).
		n.pfqPush(p, pkt)
	} else {
		p.fifo.push(pkt)
	}
	p.queued += pkt.SizeBytes
	p.stats.EnqueuedPkts++
	if p.queued > p.stats.MaxQueueBytes {
		p.stats.MaxQueueBytes = p.queued
	}
	if p.wake {
		return true
	}
	if n.Eng.now >= p.freeAt {
		n.transmit(p)
	} else {
		n.armWake(p)
	}
	return true
}

// pfqPush queues pkt behind its flow's earlier packets at PFQ port p. A flow
// with nothing queued there joins the end of the port's ring with a record
// from the free list.
func (n *Network) pfqPush(p *port, pkt *Packet) {
	for _, ri := range p.rr {
		if n.pfq[ri].id == pkt.Flow {
			n.pfq[ri].q.push(pkt)
			return
		}
	}
	if len(n.pfqFree) == 0 {
		n.pfqFree = append(n.pfqFree, int32(len(n.pfq)))
		n.pfq = append(n.pfq, pfqFlow{})
	}
	ri := n.pfqFree[len(n.pfqFree)-1]
	n.pfqFree = n.pfqFree[:len(n.pfqFree)-1]
	n.pfq[ri].id = pkt.Flow
	n.pfq[ri].q.push(pkt)
	p.rr = append(p.rr, ri)
}

// armWake schedules the port's wake-up for the end of the serialisation in
// progress, stamped with its start: wake-ups of transmissions that end in
// the same picosecond fire in the order the transmissions began, whenever
// each came to be armed.
func (n *Network) armWake(p *port) {
	p.wake = true
	n.Eng.arm(p.freeAt, p.txStart, uint32(evTxDone), 0, p)
}

// transmit puts the next eligible packet queued on the port on the wire: the
// port is taken until freeAt, and the packet's arrival at the far end — after
// serialisation and propagation — is the one event the hop costs. In PFQ
// mode a flow whose next-hop node has no buffer room is skipped
// (back-pressure); if every queued flow is blocked the port idles until a
// Kick.
//
// In a sharded run a packet bound for another shard's node is exported
// through the boundary queue instead of being scheduled locally — its
// arrival time is more than one epoch ahead (the lookahead window is the
// minimum boundary-link propagation delay), so the destination shard files
// it before its epoch begins.
func (n *Network) transmit(p *port) {
	var pkt *Packet
	if n.Cfg.PerFlowQueues {
		pkt = n.pfqPick(p)
	} else if p.fifo.head != nil {
		pkt = p.fifo.pop()
	}
	if pkt == nil {
		return
	}
	if invariantsEnabled {
		assertInvariant(!pkt.pooled, "transmit of pooled packet: kind %d flow %v seq %d", pkt.Kind, pkt.Flow, pkt.Seq)
	}
	p.queued -= pkt.SizeBytes
	p.stats.SentBytes += uint64(pkt.SizeBytes)
	n.PktHops++
	p.txStart = n.Eng.now
	p.freeAt = p.txStart + simtime.TransmitTime(pkt.SizeBytes, n.Cfg.LinkGbps)
	p.txFlow = pkt.Flow
	at := p.freeAt + n.propDelay(p.id)
	if n.sh != nil && n.sh.shardOf[p.to] != n.sh.self {
		n.exportPacket(n.sh.shardOf[p.to], at, p, pkt)
	} else {
		n.Eng.arm(at, p.freeAt, tieKey(p.id, evArrive), p.to, pkt)
	}
	if n.Cfg.PerFlowQueues || p.fifo.head != nil {
		n.armWake(p)
	}
}

// propDelay returns the propagation latency of a directed link: the
// inter-rack delay on bridge links when one is configured, the fabric-wide
// delay otherwise.
func (n *Network) propDelay(lid topology.LinkID) simtime.Time {
	if n.Cfg.InterRackPropDelay != 0 && n.G.IsInterRack(lid) {
		return n.Cfg.InterRackPropDelay
	}
	return n.Cfg.PropDelay
}

// txDone is the port's wake-up at the end of a serialisation: in PFQ mode
// the packet has left this node, so its credit returns, and the port picks
// its next packet. The port still counts as taken while the credit's
// kick runs, so a sender resumed by it queues behind the round-robin order
// instead of jumping it.
func (n *Network) txDone(p *port) {
	if n.Cfg.PerFlowQueues {
		n.release(n.G.Link(p.id).From, p.txFlow, 1)
	}
	p.wake = false
	n.transmit(p)
}

// exportPacket hands a packet crossing a shard boundary to the destination
// shard's inbox: its fields and remaining route are copied into a recycled
// handoff slot (plain data — broadcast payloads are shared by pointer, but
// they are immutable and the epoch barrier orders the accesses) and the
// packet itself returns to this shard's arena.
func (n *Network) exportPacket(dst int32, at simtime.Time, p *port, pkt *Packet) {
	h := n.sh.export(dst)
	h.at = at
	h.emit = p.freeAt // the arrival's stamp in a serial run
	h.link = p.id
	h.node = p.to
	h.kind = pkt.Kind
	h.size = pkt.SizeBytes
	h.flow = pkt.Flow
	h.src = pkt.Src
	h.dst = pkt.Dst
	h.seq = pkt.Seq
	h.payload = pkt.Payload
	h.retx = pkt.Retx
	h.retries = pkt.Retries
	h.flowSize = pkt.flowSize
	h.flowStart = pkt.flowStart
	if pkt.Kind == KindBroadcast {
		h.bcast = pkt.Bcast
	} else {
		h.path = append(h.path, pkt.Path[pkt.Hop:]...)
	}
	n.freePacket(pkt)
}

// exportReflood hands a §3.2 broadcast-retransmission request to the
// origin's shard as a control handoff: the origin's tree cursor lives with
// its node state, so the retransmission must execute over there. The
// broadcast payload crosses by pointer (immutable; the epoch barrier orders
// the accesses).
func (n *Network) exportReflood(dst int32, at simtime.Time, lid topology.LinkID, origin topology.NodeID, b *wire.Broadcast, retries uint8) {
	h := n.sh.export(dst)
	h.at = at
	h.emit = n.Eng.now // the drop instant: serial runs arm the reflood timer here
	h.link = lid
	h.node = origin
	h.ctrl = true
	h.bcast = b
	h.retries = retries
}

// pfqPick selects the next flow in round-robin order whose head packet can
// make progress.
func (n *Network) pfqPick(p *port) *Packet {
	for scanned := 0; scanned < len(p.rr); scanned++ {
		i := (p.rrNext + scanned) % len(p.rr)
		f := &n.pfq[p.rr[i]]
		// The next-hop node must have room unless it is the destination;
		// the credit is reserved NOW, so concurrent upstreams cannot
		// collectively overshoot the bound.
		if p.to != f.q.head.Dst {
			if !n.HasRoom(p.to, f.id) {
				continue
			}
			n.charge(p.to, f.id)
		}
		pkt := f.q.pop()
		if f.q.head == nil {
			n.pfqFree = append(n.pfqFree, p.rr[i])
			p.rr = append(p.rr[:i], p.rr[i+1:]...)
			p.rrNext = i % max(1, len(p.rr))
		} else {
			p.rrNext = (i + 1) % len(p.rr)
		}
		return pkt
	}
	return nil
}

// kickUpstream restarts idle ports feeding `node` (their head packets may
// have been blocked on its buffers) and notifies local senders.
func (n *Network) kickUpstream(node topology.NodeID, flow wire.FlowID) {
	for _, lid := range n.G.In(node) {
		p := n.ports[lid]
		if p.queued > 0 && p.idle(n.Eng.now) {
			n.transmit(p)
		}
	}
	if n.Kick != nil {
		n.Kick(node, flow)
	}
}

// arrive handles a packet reaching `node`: delivery, broadcast fan-out, or
// forwarding along its source route.
func (n *Network) arrive(node topology.NodeID, pkt *Packet) {
	if invariantsEnabled {
		assertInvariant(!pkt.pooled, "arrival of pooled packet: kind %d flow %v seq %d", pkt.Kind, pkt.Flow, pkt.Seq)
	}
	switch pkt.Kind {
	case KindBroadcast:
		if n.Deliver != nil {
			n.Deliver(node, pkt)
		}
		n.forwardBroadcast(node, pkt)
		n.freePacket(pkt)
	default:
		if node == pkt.Dst {
			if n.Deliver != nil {
				n.Deliver(node, pkt)
			}
			n.freePacket(pkt)
			return
		}
		if pkt.Hop >= len(pkt.Path) {
			panic(fmt.Sprintf("sim: packet for %d stranded at %d (route exhausted)", pkt.Dst, node))
		}
		lid := pkt.Path[pkt.Hop]
		pkt.Hop++
		n.enqueue(node, lid, pkt)
	}
}

// MaxQueueSample returns the per-port maximum queue occupancies in bytes —
// the Figure 14 statistic ("maximum queue occupancy ... across all node
// queues").
func (n *Network) MaxQueueSample() []float64 {
	out := make([]float64, len(n.ports))
	for i, p := range n.ports {
		out[i] = float64(p.stats.MaxQueueBytes)
	}
	return out
}
