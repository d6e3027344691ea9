package sim

import (
	"math/bits"

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
	InitCwnd int          // initial congestion window, packets (default 10)
	InitSSTh int          // initial slow-start threshold, packets (default 64)
	MinRTO   simtime.Time // retransmission timeout floor (default 200 µs)
}

// tcpMaxInFlight is the hard cap on a sender's outstanding packets, whatever
// cwnd has grown to; it is also what bounds the send-time ring
// (tcpSender.sentAt).
const tcpMaxInFlight = 1024

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
}

// TCP runs the baseline transport over the simulated fabric.
type TCP struct {
	Net *Network
	Tab *routing.Table
	Cfg TCPConfig

	flows *flowTable[*tcpSender] // a slot empties when the flow's last ack arrives

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
	rtoArmed bool
	rtoTimer timerHandle // cancels the pending timeout outright
	done     bool

	// recv is the receiving end's reorder buffer. It lives here because the
	// two ends of a flow are created and released together.
	recv reorderWindow

	// Send times of the outstanding packets, for the RTT samples: a ring in
	// which cell seq&(len-1) holds 1 + the time seq was last sent, 0 once it
	// is acknowledged. The ring has a cell for each packet the window cap
	// lets be outstanding, so every cell in use belongs to one sequence in
	// [cumAcked, cumAcked+len). outstanding counts the packets sent and
	// neither acknowledged nor written off by a timeout; that includes any
	// sent below cumAcked (a timeout pulls nextSend back, and an ack for a
	// packet already in flight can then overtake it), which no ack will look
	// up again and so need no cell.
	sentAt      []simtime.Time
	outstanding int
}

// sentCell returns seq's cell in the send-time ring.
func (s *tcpSender) sentCell(seq uint32) *simtime.Time {
	return &s.sentAt[int(seq)&(len(s.sentAt)-1)]
}

// stamp records that seq goes on the wire now.
func (s *tcpSender) stamp(seq uint32, now simtime.Time) {
	if seq < s.cumAcked {
		s.outstanding++
		return
	}
	if invariantsEnabled {
		assertInvariant(int(seq-s.cumAcked) < len(s.sentAt), "TCP packet sent further past the ack point than the window cap")
	}
	cell := s.sentCell(seq)
	if *cell == 0 {
		s.outstanding++
	}
	*cell = now + 1
}

// ackTo advances the cumulative ack point to cum: every outstanding packet
// below it leaves the ring, its round trip folded into the smoothed RTT.
func (s *tcpSender) ackTo(cum uint32, now simtime.Time) {
	for seq, end := s.cumAcked, min(cum, s.cumAcked+uint32(len(s.sentAt))); seq < end; seq++ {
		if cell := s.sentCell(seq); *cell != 0 {
			rtt := now - (*cell - 1)
			s.srtt = (7*s.srtt + rtt) / 8
			*cell = 0
			s.outstanding--
		}
	}
	s.cumAcked = cum
}

// forgetSent writes every outstanding packet off (a timeout).
func (s *tcpSender) forgetSent() {
	clear(s.sentAt)
	s.outstanding = 0
}

// NewTCP wires the TCP baseline into a network.
func NewTCP(net *Network, tab *routing.Table, cfg TCPConfig) *TCP {
	cfg.defaults()
	t := &TCP{
		Net:   net,
		Tab:   tab,
		Cfg:   cfg,
		flows: newFlowTable[*tcpSender](net.G.Nodes()),
	}
	net.Deliver = t.deliver
	if net.Eng.tcp != nil && net.Eng.tcp != t {
		panic("sim: engine already drives another TCP transport")
	}
	net.Eng.tcp = t // typed-event receiver for evTCPRTO
	return t
}

// StartFlow begins a TCP flow of sizeBytes.
func (t *TCP) StartFlow(src, dst topology.NodeID, sizeBytes int64) wire.FlowID {
	if src == dst || sizeBytes <= 0 {
		panic("sim: degenerate flow")
	}
	slot := t.flows.open(src, dst, sizeBytes, t.Net.Eng.Now())
	id := slot.rec.ID
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
		// Everything from cumAcked up to nextSend is outstanding, and pump
		// keeps that under the cap: a power of two of cells covers the span.
		sentAt: make([]simtime.Time, 1<<bits.Len(uint(min(int(pkts), tcpMaxInFlight)-1))),
	}
	slot.st = s
	t.pump(s)
	return id
}

// pump transmits new packets while the window allows.
func (t *TCP) pump(s *tcpSender) {
	if s.done {
		return
	}
	for s.nextSend < s.totalPkts && s.outstanding < int(s.cwnd) && s.outstanding < tcpMaxInFlight {
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
	if retx {
		t.Retransmissions++
	}
	s.stamp(seq, t.Net.Eng.Now())
	t.Net.Inject(pkt) // drops are recovered by timeout/fast-retransmit
}

func (t *TCP) armRTO(s *tcpSender) {
	if s.rtoArmed || s.outstanding == 0 || s.done {
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
	if s.outstanding == 0 {
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
	s.forgetSent() // go-back-N retransmits everything from the ack point
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
	slot := t.flows.get(pkt.Flow)
	if slot == nil || slot.st == nil {
		return // flow already completed; stale retransmission
	}
	rec, s := slot.rec, slot.st
	if s.recv.accept(pkt.Seq) {
		rec.BytesRcvd += int64(pkt.Payload)
	}
	// Cumulative ack (per packet, 16 bytes on the wire).
	ack := t.Net.newPacket()
	ack.Kind = KindAck
	ack.SizeBytes = AckBytes
	ack.Flow = pkt.Flow
	ack.Src = pkt.Dst
	ack.Dst = pkt.Src
	ack.Seq = s.recv.next
	ack.Path = s.ackPath // per-flow reverse route, shared by reference
	t.Net.Inject(ack)
	if !rec.Done && rec.BytesRcvd >= rec.SizeBytes {
		t.flows.finish(rec, t.Net.Eng.Now())
	}
}

func (t *TCP) receiveAck(pkt *Packet) {
	slot := t.flows.get(pkt.Flow)
	if slot == nil || slot.st == nil {
		return // flow already fully acked; late ack
	}
	s := slot.st
	cum := pkt.Seq // receiver's next expected packet
	if cum > s.cumAcked {
		newlyAcked := float64(cum - s.cumAcked)
		s.ackTo(cum, t.Net.Eng.Now())
		s.dupAcks = 0
		if s.cwnd < s.ssthresh {
			s.cwnd += newlyAcked // slow start: exponential growth
		} else {
			s.cwnd += newlyAcked / s.cwnd // congestion avoidance
		}
		t.disarmRTO(s)
		if s.cumAcked >= s.totalPkts {
			s.done = true
			slot.rec.SenderDone = true
			slot.st = nil // both ends, their two routes and the send times
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
