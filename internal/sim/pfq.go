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

// NewPFQ wires the PFQ baseline into a network. The network must have been
// created with NetConfig.PerFlowQueues = true.
func NewPFQ(net *Network, tab *routing.Table, seed int64) *PFQ {
	if !net.Cfg.PerFlowQueues {
		panic("sim: PFQ requires a network with PerFlowQueues enabled")
	}
	p := &PFQ{
		Net:   net,
		Tab:   tab,
		rng:   rand.New(rand.NewSource(seed)),
		flows: newFlowTable[*pfqSource](net.G.Nodes()),
	}
	net.Deliver = p.deliver
	net.Kick = p.kick
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
	for !s.done && s.remaining > 0 && p.Net.HasRoom(s.src, s.rec.ID) {
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
