package sim

import (
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// TCPConfig parameterises the TCP baseline of §5.2: a NewReno-style
// window-based protocol over an ECMP-like single shortest path per flow
// ("packets belonging to the same flow are routed onto the same path as
// required by TCP", with different flows hashed onto different paths).
type TCPConfig struct {
	InitCwnd   int          // initial congestion window, packets (default 10)
	InitSSTh   int          // initial slow-start threshold, packets (default 64)
	MinRTO     simtime.Time // retransmission timeout floor (default 200 µs)
	MaxInFlict int          // hard cap on cwnd, packets (default 1024)
}

func (c *TCPConfig) defaults() {
	if c.InitCwnd == 0 {
		c.InitCwnd = 10
	}
	if c.InitSSTh == 0 {
		c.InitSSTh = 64
	}
	if c.MinRTO == 0 {
		c.MinRTO = 200 * simtime.Microsecond
	}
	if c.MaxInFlict == 0 {
		c.MaxInFlict = 1024
	}
}

// TCP runs the baseline transport over the simulated fabric.
type TCP struct {
	Net *Network
	Tab *routing.Table
	Cfg TCPConfig

	ledger  *flowLedger
	senders map[wire.FlowID]*tcpSender
	recvs   map[wire.FlowID]*tcpReceiver
	nextSeq map[topology.NodeID]uint16

	// Retransmissions counts retransmitted data packets.
	Retransmissions uint64
}

type tcpSender struct {
	id        wire.FlowID
	src, dst  topology.NodeID
	path      []topology.LinkID
	ackPath   []topology.LinkID
	totalPkts uint32
	lastSize  int // payload of the final packet

	cwnd     float64 // packets
	ssthresh float64
	nextSend uint32 // next new packet to transmit
	cumAcked uint32 // packets acknowledged in order
	dupAcks  int
	srtt     simtime.Time
	sent     map[uint32]simtime.Time // outstanding packet send times
	rtoArmed bool
	rtoTimer timerHandle // cancels the pending timeout outright
	done     bool
}

type tcpReceiver struct {
	next uint32
	oob  map[uint32]bool
}

// NewTCP wires the TCP baseline into a network.
func NewTCP(net *Network, tab *routing.Table, cfg TCPConfig) *TCP {
	cfg.defaults()
	t := &TCP{
		Net:     net,
		Tab:     tab,
		Cfg:     cfg,
		ledger:  newFlowLedger(),
		senders: make(map[wire.FlowID]*tcpSender),
		recvs:   make(map[wire.FlowID]*tcpReceiver),
		nextSeq: make(map[topology.NodeID]uint16),
	}
	net.Deliver = t.deliver
	if net.Eng.tcp != nil && net.Eng.tcp != t {
		panic("sim: engine already drives another TCP transport")
	}
	net.Eng.tcp = t // typed-event receiver for evTCPRTO
	return t
}

// Ledger exposes the flow records for results collection.
func (t *TCP) Ledger() map[wire.FlowID]*FlowRecord { return t.ledger.records }

// StartFlow begins a TCP flow of sizeBytes.
func (t *TCP) StartFlow(src, dst topology.NodeID, sizeBytes int64) wire.FlowID {
	if src == dst || sizeBytes <= 0 {
		panic("sim: degenerate flow")
	}
	seq := t.nextSeq[src]
	t.nextSeq[src] = seq + 1
	id := wire.MakeFlowID(uint16(src), seq)
	pkts := uint32((sizeBytes + MaxPayload - 1) / MaxPayload)
	last := int(sizeBytes - int64(pkts-1)*MaxPayload)
	s := &tcpSender{
		id: id, src: src, dst: dst,
		path:      t.Tab.ECMPPath(src, dst, id),
		ackPath:   t.Tab.ECMPPath(dst, src, id),
		totalPkts: pkts,
		lastSize:  last,
		cwnd:      float64(t.Cfg.InitCwnd),
		ssthresh:  float64(t.Cfg.InitSSTh),
		srtt:      t.Cfg.MinRTO / 2,
		sent:      make(map[uint32]simtime.Time),
	}
	t.senders[id] = s
	t.recvs[id] = &tcpReceiver{oob: make(map[uint32]bool)}
	t.ledger.open(id, src, dst, sizeBytes, t.Net.Eng.Now())
	t.pump(s)
	return id
}

// pump transmits new packets while the window allows.
func (t *TCP) pump(s *tcpSender) {
	if s.done {
		return
	}
	for s.nextSend < s.totalPkts && len(s.sent) < int(s.cwnd) && len(s.sent) < t.Cfg.MaxInFlict {
		t.sendPacket(s, s.nextSend, false)
		s.nextSend++
	}
	t.armRTO(s)
}

func (t *TCP) sendPacket(s *tcpSender, seq uint32, retx bool) {
	payload := MaxPayload
	if seq == s.totalPkts-1 {
		payload = s.lastSize
	}
	pkt := t.Net.newPacket()
	pkt.Kind = KindData
	pkt.SizeBytes = payload + DataHeaderBytes
	pkt.Flow = s.id
	pkt.Src = s.src
	pkt.Dst = s.dst
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.Path = s.path // per-flow ECMP route, shared by reference
	pkt.Retx = retx
	if retx {
		t.Retransmissions++
	}
	s.sent[seq] = t.Net.Eng.Now()
	t.Net.Inject(pkt) // drops are recovered by timeout/fast-retransmit
}

func (t *TCP) armRTO(s *tcpSender) {
	if s.rtoArmed || len(s.sent) == 0 || s.done {
		return
	}
	s.rtoArmed = true
	rto := 4 * s.srtt
	if rto < t.Cfg.MinRTO {
		rto = t.Cfg.MinRTO
	}
	s.rtoTimer = t.Net.Eng.after(rto, evTCPRTO, s)
}

// disarmRTO removes a pending timeout from the schedule.
func (t *TCP) disarmRTO(s *tcpSender) {
	s.rtoArmed = false
	t.Net.Eng.cancelTimer(s.rtoTimer)
	s.rtoTimer = timerHandle{}
}

func (t *TCP) onRTO(s *tcpSender) {
	if s.done {
		return
	}
	s.rtoArmed = false
	if len(s.sent) == 0 {
		return
	}
	// Timeout: multiplicative decrease to a window of 1 and go-back-N from
	// the cumulative ack point.
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.dupAcks = 0
	clear(s.sent) // reuse the map's buckets: go-back-N retransmits refill it

	s.nextSend = s.cumAcked
	t.pump(s)
}

// deliver dispatches data packets to receivers and acks to senders.
func (t *TCP) deliver(at topology.NodeID, pkt *Packet) {
	switch pkt.Kind {
	case KindData:
		t.receiveData(at, pkt)
	case KindAck:
		t.receiveAck(pkt)
	default:
		panic("sim: TCP network saw unexpected packet kind")
	}
}

func (t *TCP) receiveData(at topology.NodeID, pkt *Packet) {
	r := t.recvs[pkt.Flow]
	if r == nil {
		return // flow already completed; stale retransmission
	}
	rec := t.ledger.get(pkt.Flow)
	if pkt.Seq >= r.next && !r.oob[pkt.Seq] {
		r.oob[pkt.Seq] = true
		rec.BytesRcvd += int64(pkt.Payload)
		for r.oob[r.next] {
			delete(r.oob, r.next)
			r.next++
		}
	}
	// Cumulative ack (per packet, 16 bytes on the wire).
	s := t.senders[pkt.Flow]
	ack := t.Net.newPacket()
	ack.Kind = KindAck
	ack.SizeBytes = AckBytes
	ack.Flow = pkt.Flow
	ack.Src = pkt.Dst
	ack.Dst = pkt.Src
	ack.Seq = r.next
	ack.Path = s.ackPath // per-flow reverse route, shared by reference
	t.Net.Inject(ack)
	if !rec.Done && rec.BytesRcvd >= rec.SizeBytes {
		rec.Done = true
		rec.Finished = t.Net.Eng.Now()
	}
}

func (t *TCP) receiveAck(pkt *Packet) {
	s := t.senders[pkt.Flow]
	if s == nil || s.done {
		return
	}
	cum := pkt.Seq // receiver's next expected packet
	if cum > s.cumAcked {
		newlyAcked := float64(cum - s.cumAcked)
		for seq := s.cumAcked; seq < cum; seq++ {
			if sentAt, ok := s.sent[seq]; ok {
				rtt := t.Net.Eng.Now() - sentAt
				s.srtt = (7*s.srtt + rtt) / 8
				delete(s.sent, seq)
			}
		}
		s.cumAcked = cum
		s.dupAcks = 0
		if s.cwnd < s.ssthresh {
			s.cwnd += newlyAcked // slow start: exponential growth
		} else {
			s.cwnd += newlyAcked / s.cwnd // congestion avoidance
		}
		t.disarmRTO(s)
		if s.cumAcked >= s.totalPkts {
			s.done = true
			rec := t.ledger.get(pkt.Flow)
			rec.SenderDone = true
			delete(t.recvs, pkt.Flow)
			return
		}
	} else {
		s.dupAcks++
		if s.dupAcks == 3 {
			// Fast retransmit + multiplicative decrease.
			s.ssthresh = s.cwnd / 2
			if s.ssthresh < 2 {
				s.ssthresh = 2
			}
			s.cwnd = s.ssthresh
			t.sendPacket(s, s.cumAcked, true)
			s.dupAcks = 0
		}
	}
	t.pump(s)
}
