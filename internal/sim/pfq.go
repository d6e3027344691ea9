package sim

import (
	"math/rand"

	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// PFQ is the idealised per-flow-queue baseline of §5.2: every node keeps a
// queue per flow with hop-by-hop back-pressure, ports serve flows in
// round-robin order, and sources inject whenever their local per-flow
// buffer has room. The paper uses it as the upper bound achievable by any
// rate-control protocol; it is impractical on real racks because of the
// per-flow state and buffering it demands at every node.
//
// Routing is random packet spraying, matching the paper's setup.
type PFQ struct {
	Net *Network
	Tab *routing.Table

	rng   *rand.Rand
	flows *flowTable[*pfqSource]
}

type pfqSource struct {
	rec       *FlowRecord
	src, dst  topology.NodeID
	remaining int64
	seq       uint32
	done      bool
}

// pfqBufferPackets is how many packets of one flow a node may hold (§5.2).
const pfqBufferPackets = 4

// NewPFQ wires the PFQ baseline into a network, installing the per-flow
// queueing discipline on it.
func NewPFQ(net *Network, tab *routing.Table, seed int64) *PFQ {
	return newPFQ(net, tab, seed, pfqBufferPackets)
}

// newPFQ is NewPFQ with a per-flow buffer of buf packets per node.
func newPFQ(net *Network, tab *routing.Table, seed int64, buf int) *PFQ {
	p := &PFQ{
		Net:   net,
		Tab:   tab,
		rng:   rand.New(rand.NewSource(seed)),
		flows: newFlowTable[*pfqSource](net.G.Nodes()),
	}
	net.installPFQ(buf)
	net.Deliver = p.deliver
	net.pfq.kick = p.kick
	return p
}

// StartFlow begins a flow of sizeBytes; injection is driven entirely by
// back-pressure credits.
func (p *PFQ) StartFlow(src, dst topology.NodeID, sizeBytes int64) wire.FlowID {
	if src == dst || sizeBytes <= 0 {
		panic("sim: degenerate flow")
	}
	slot := p.flows.open(src, dst, sizeBytes, p.Net.Eng.Now())
	s := &pfqSource{rec: slot.rec, src: src, dst: dst, remaining: sizeBytes}
	slot.st = s
	p.fill(s)
	return s.rec.ID
}

// fill injects packets while the source node has buffer room for the flow.
func (p *PFQ) fill(s *pfqSource) {
	for !s.done && s.remaining > 0 && p.Net.hasRoom(s.src, s.rec.ID) {
		payload := int64(MaxPayload)
		if s.remaining < payload {
			payload = s.remaining
		}
		pkt := p.Net.newPacket()
		pkt.Kind = KindData
		pkt.SizeBytes = int(payload) + DataHeaderBytes
		pkt.Flow = s.rec.ID
		pkt.Src = s.src
		pkt.Dst = s.dst
		pkt.Seq = s.seq
		pkt.Payload = int(payload)
		pkt.scratch = p.Tab.AppendPath(pkt.scratch[:0], routing.RPS, s.src, s.dst, p.rng)
		pkt.Path = pkt.scratch
		s.seq++
		s.remaining -= payload
		p.Net.Inject(pkt)
	}
	if s.remaining <= 0 && !s.done {
		s.done = true
		s.rec.SenderDone = true
	}
}

// kick resumes blocked sources at a node when buffer space frees.
func (p *PFQ) kick(at topology.NodeID, flow wire.FlowID) {
	if slot := p.flows.get(flow); slot != nil && slot.st.src == at {
		p.fill(slot.st)
	}
}

func (p *PFQ) deliver(at topology.NodeID, pkt *Packet) {
	if pkt.Kind != KindData {
		panic("sim: PFQ network saw unexpected packet kind")
	}
	rec := p.flows.get(pkt.Flow).rec
	rec.BytesRcvd += int64(pkt.Payload)
	if !rec.Done && rec.BytesRcvd >= rec.SizeBytes {
		p.flows.finish(rec, p.Net.Eng.Now())
	}
}

// pfqFabric is the per-flow-queue discipline of a Network (Network.pfq):
// per-flow queues at every port, served round-robin, with hop-by-hop
// back-pressure of buf packets per flow per node. A FIFO network has none.
type pfqFabric struct {
	buf int
	// credits[node] lists the flows with packets charged to the node: those
	// in its output queues plus those already in flight toward it (credits
	// are reserved when the upstream port begins transmission, so
	// concurrent senders cannot overshoot the bound). A flow leaves the list
	// at zero, so it is short and scanned.
	credits [][]pfqCredit
	// The ports' per-flow queue records, and those no ring holds.
	flows []pfqFlow
	free  []int32
	ports []pfqPort // by link
	// kick is invoked when buffer space frees at a node, so blocked senders
	// located there can resume injection.
	kick func(at topology.NodeID, flow wire.FlowID)
}

// pfqPort is one port's share of the discipline.
type pfqPort struct {
	// rr is the round-robin ring of the flows with packets queued here, as
	// indices into pfqFabric.flows; rrNext is the next turn.
	rr     []int32
	rrNext int32
	txFlow wire.FlowID // flow of the packet being serialised (its credit is released at freeAt)
}

// pfqFlow is one flow's queue at one PFQ port. It is on the port's ring
// while the queue holds packets and on pfqFabric.free once it drains.
type pfqFlow struct {
	id wire.FlowID
	q  pktQueue
}

// pfqCredit is one flow's packet count charged to a node.
type pfqCredit struct {
	flow wire.FlowID
	n    int32
}

// installPFQ switches the network's ports to per-flow queues with a buffer
// of buf packets per flow per node.
func (n *Network) installPFQ(buf int) {
	n.pfq = &pfqFabric{
		buf:     buf,
		credits: make([][]pfqCredit, n.G.Vertices()),
		ports:   make([]pfqPort, len(n.ports)),
	}
}

// hasRoom reports whether node has buffer space for another packet of the
// flow.
func (n *Network) hasRoom(node topology.NodeID, flow wire.FlowID) bool {
	c := n.credit(node, flow)
	return c == nil || int(c.n) < n.pfq.buf
}

// credit returns the flow's entry in node's credit list, nil if the node
// holds none of its packets.
func (n *Network) credit(node topology.NodeID, flow wire.FlowID) *pfqCredit {
	cs := n.pfq.credits[node]
	for i := range cs {
		if cs[i].flow == flow {
			return &cs[i]
		}
	}
	return nil
}

// charge takes one of node's credits for the flow.
func (n *Network) charge(node topology.NodeID, flow wire.FlowID) {
	if c := n.credit(node, flow); c != nil {
		c.n++
	} else {
		n.pfq.credits[node] = append(n.pfq.credits[node], pfqCredit{flow: flow, n: 1})
	}
}

// release returns k of node's credits for the flow — its packets there left
// on the wire, were dropped, or were lost with a failed port — and kicks the
// node's upstream ports and local senders, which may have been blocked on
// them. An entry whose count reaches zero leaves the list.
func (n *Network) release(node topology.NodeID, flow wire.FlowID, k int) {
	c := n.credit(node, flow)
	if c.n -= int32(k); c.n == 0 {
		cs := n.pfq.credits[node]
		*c = cs[len(cs)-1]
		n.pfq.credits[node] = cs[:len(cs)-1]
	}
	n.kickUpstream(node)
	if n.pfq.kick != nil {
		n.pfq.kick(node, flow)
	}
}

// kickUpstream restarts idle ports feeding node: their head packets may have
// been blocked on its buffers.
func (n *Network) kickUpstream(node topology.NodeID) {
	for _, lid := range n.G.In(node) {
		p := n.ports[lid]
		if p.queued > 0 && p.idle(n.Eng.now) {
			n.transmit(p)
		}
	}
}

// pfqPush queues pkt behind its flow's earlier packets at port p. A flow
// with nothing queued there joins the end of the port's ring with a record
// from the free list.
func (n *Network) pfqPush(p *port, pkt *Packet) {
	f, pp := n.pfq, &n.pfq.ports[p.id]
	for _, ri := range pp.rr {
		if f.flows[ri].id == pkt.Flow {
			f.flows[ri].q.push(pkt)
			return
		}
	}
	if len(f.free) == 0 {
		f.free = append(f.free, int32(len(f.flows)))
		f.flows = append(f.flows, pfqFlow{})
	}
	ri := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.flows[ri].id = pkt.Flow
	f.flows[ri].q.push(pkt)
	pp.rr = append(pp.rr, ri)
}

// pfqPick selects the next flow in round-robin order whose head packet can
// make progress: a flow whose next-hop node has no buffer room is skipped
// (back-pressure), and if every queued flow is blocked the port idles until
// a kick.
func (n *Network) pfqPick(p *port) *Packet {
	pp := &n.pfq.ports[p.id]
	for scanned := 0; scanned < len(pp.rr); scanned++ {
		i := (int(pp.rrNext) + scanned) % len(pp.rr)
		f := &n.pfq.flows[pp.rr[i]]
		// The next-hop node must have room unless it is the destination;
		// the credit is reserved NOW, so concurrent upstreams cannot
		// collectively overshoot the bound.
		if p.to != f.q.head.Dst {
			if !n.hasRoom(p.to, f.id) {
				continue
			}
			n.charge(p.to, f.id)
		}
		pkt := f.q.pop()
		if f.q.head == nil {
			n.pfq.free = append(n.pfq.free, pp.rr[i])
			pp.rr = append(pp.rr[:i], pp.rr[i+1:]...)
			pp.rrNext = int32(i % max(1, len(pp.rr)))
		} else {
			pp.rrNext = int32((i + 1) % len(pp.rr))
		}
		return pkt
	}
	return nil
}

// pfqFlush empties a failed port's flow queues in ring order, each flow's
// credits at the port's node with them, and returns how many packets were
// lost. A dead port queues nothing, so the kicks the releases make cannot
// touch its ring.
func (n *Network) pfqFlush(p *port) int {
	pp, from, lost := &n.pfq.ports[p.id], n.G.Link(p.id).From, 0
	for _, ri := range pp.rr {
		q, k := &n.pfq.flows[ri].q, 0
		for q.head != nil {
			n.freePacket(q.pop())
			k++
		}
		lost += k
		n.pfq.free = append(n.pfq.free, ri)
		n.release(from, n.pfq.flows[ri].id, k)
	}
	pp.rr = pp.rr[:0]
	return lost
}
