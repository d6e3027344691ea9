package sim

import (
	"math/rand"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// Slow start: with a large flow and no loss, the congestion window must
// grow beyond its initial value quickly (exponential ramp).
func TestTCPSlowStartRamps(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	tcp := NewTCP(net, routing.NewTable(g), TCPConfig{InitCwnd: 2, InitSSTh: 64})
	id := tcp.StartFlow(0, 5, 4<<20)
	s := tcp.flows.get(id).st
	if s.cwnd != 2 {
		t.Fatalf("initial cwnd = %v", s.cwnd)
	}
	// After a handful of RTTs (tens of µs on this fabric), cwnd must have
	// at least quadrupled.
	eng.Run(200 * simtime.Microsecond)
	if s.cwnd < 8 {
		t.Fatalf("cwnd after 200us = %v; slow start not ramping", s.cwnd)
	}
	eng.Run(time500ms)
	if !tcp.Ledger()[id].Done {
		t.Fatal("flow incomplete")
	}
}

// Congestion avoidance: past ssthresh, growth becomes sub-exponential
// (roughly one packet per RTT).
func TestTCPCongestionAvoidance(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	tcp := NewTCP(net, routing.NewTable(g), TCPConfig{InitCwnd: 8, InitSSTh: 8})
	id := tcp.StartFlow(0, 5, 8<<20)
	s := tcp.flows.get(id).st
	eng.Run(100 * simtime.Microsecond)
	c1 := s.cwnd
	eng.Run(200 * simtime.Microsecond)
	c2 := s.cwnd
	if c2 <= c1 {
		t.Fatalf("congestion avoidance stalled: %v -> %v", c1, c2)
	}
	// CA growth over 100µs (a few RTTs) should be a few packets, not a
	// doubling cascade.
	if c2 > c1*4 {
		t.Fatalf("growth %v -> %v looks exponential above ssthresh", c1, c2)
	}
	_ = id
}

// Fast retransmit: a single dropped packet with continued traffic must be
// recovered via dup-acks without waiting for a full RTO, and the window
// must halve rather than collapse to 1.
func TestTCPFastRetransmit(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	tcp := NewTCP(net, routing.NewTable(g), TCPConfig{InitCwnd: 16, InitSSTh: 16, MinRTO: 10 * simtime.Millisecond})
	id := tcp.StartFlow(0, 5, 2<<20)
	s := tcp.flows.get(id).st
	// Drop exactly one data packet in flight by intercepting delivery.
	dropped := false
	orig := net.Deliver
	net.Deliver = func(at topology.NodeID, pkt *Packet) {
		if !dropped && pkt.Kind == KindData && pkt.Seq == 20 { // the first transmission
			dropped = true
			return // swallowed: simulates a loss
		}
		orig(at, pkt)
	}
	eng.Run(5 * simtime.Millisecond) // well under the 10ms RTO
	if !dropped {
		t.Fatal("target packet never seen")
	}
	if tcp.Retransmissions == 0 {
		t.Fatal("no fast retransmit before the RTO")
	}
	if s.cwnd < 2 {
		t.Fatalf("cwnd collapsed to %v; fast retransmit should halve, not reset", s.cwnd)
	}
	eng.Run(2 * simtime.Second)
	if !tcp.Ledger()[id].Done {
		t.Fatalf("flow incomplete: %d/%d", tcp.Ledger()[id].BytesRcvd, tcp.Ledger()[id].SizeBytes)
	}
}

// TestTCPFastRetransmitOnThirdDupAck: a loss followed by exactly three
// packets draws three duplicate acks, and the third retransmits at once,
// long before the retransmission timeout.
func TestTCPFastRetransmitOnThirdDupAck(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond})
	tcp := NewTCP(net, routing.NewTable(g), TCPConfig{InitCwnd: 16, InitSSTh: 16, MinRTO: 10 * simtime.Millisecond})
	id := tcp.StartFlow(0, 5, 8*MaxPayload) // eight packets, all in the first window
	dropped := false
	orig := net.Deliver
	net.Deliver = func(at topology.NodeID, pkt *Packet) {
		if !dropped && pkt.Kind == KindData && pkt.Seq == 4 {
			dropped = true
			return
		}
		orig(at, pkt)
	}
	eng.Run(5 * simtime.Millisecond)
	if rec := tcp.Ledger()[id]; !dropped || tcp.Retransmissions != 1 || !rec.Done {
		t.Fatalf("dropped %v, %d retransmissions, done %v before the RTO; want true, 1, true",
			dropped, tcp.Retransmissions, rec.Done)
	}
}

// A finished flow's sender (with its two routes and its send-time ring) and
// receiver are released when the last ack arrives, drops and retransmissions
// included: what stays per flow is its record. Stale retransmissions and late
// acks that arrive afterwards find the empty slot and stop there.
func TestTCPReleasesFinishedFlows(t *testing.T) {
	g := torus(t, 4, 2)
	eng := &Engine{}
	// Queues of ten packets under an all-to-one burst: drops, timeouts, go-back-N.
	net := NewNetwork(g, eng, NetConfig{LinkGbps: 10, QueueBytes: 15000})
	tcp := NewTCP(net, routing.NewTable(g), TCPConfig{MinRTO: 20 * simtime.Microsecond})
	var ids []wire.FlowID
	for src := 1; src < g.Nodes(); src++ {
		for k := 0; k < 3; k++ {
			ids = append(ids, tcp.StartFlow(topology.NodeID(src), 0, int64(100+src)<<10))
		}
	}
	for _, id := range ids {
		if tcp.flows.get(id).st == nil {
			t.Fatalf("flow %v started without its sender and receiver", id)
		}
	}
	eng.Run(2 * simtime.Second)
	if tcp.Retransmissions == 0 || net.TotalDrops() == 0 {
		t.Fatalf("workload too gentle: %d retransmissions, %d drops", tcp.Retransmissions, net.TotalDrops())
	}
	for _, id := range ids {
		slot := tcp.flows.get(id)
		if !slot.rec.Done || !slot.rec.SenderDone || slot.rec.BytesRcvd != slot.rec.SizeBytes {
			t.Fatalf("flow %v incomplete: %+v", id, *slot.rec)
		}
		if slot.st != nil {
			t.Fatalf("finished flow %v still holds its sender and receiver", id)
		}
	}
	if eng.Pending() {
		t.Fatalf("%d events still scheduled after every flow finished", eng.PendingEvents())
	}
	// A stale retransmission and a late ack for a released flow.
	for _, kind := range []PacketKind{KindData, KindAck} {
		pkt := net.newPacket()
		pkt.Kind, pkt.Flow, pkt.Src, pkt.Dst, pkt.Seq, pkt.Payload = kind, ids[0], 1, 0, 3, MaxPayload
		tcp.deliver(0, pkt)
		net.freePacket(pkt)
	}
	if eng.Pending() {
		t.Fatal("a packet for a released flow scheduled something")
	}
}

// TestSendTimesMatchMapReference drives a sender's send-time ring and the
// map[seq]time it replaced through what pump, fast retransmit, cumulative
// acks and timeouts do to them — including an ack that overtakes nextSend
// after a timeout pulled it back, so that packets are sent below the ack
// point — and compares what the sender reads: the number outstanding and the
// smoothed RTT.
func TestSendTimesMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := &tcpSender{srtt: 1000, sentAt: make([]simtime.Time, 1024)}
	sent, srtt := map[uint32]simtime.Time{}, simtime.Time(1000)
	var nextSend, highSent uint32
	now := simtime.Time(0)
	send := func(seq uint32) {
		s.stamp(seq, now)
		sent[seq] = now
		highSent = max(highSent, seq+1)
	}
	below, widest := 0, 0
	for step := 0; step < 200_000; step++ {
		now += simtime.Time(1 + rng.Intn(500))
		acks := 3 + 30*(step/5000%2) // percent of steps: phases of sparse acks let the window build
		switch r := rng.Intn(100); {
		case r < 60: // pump: one new packet, while the window (up to 700, under the ring's 1,024) allows
			if len(sent) < 1+step%700 {
				if nextSend < s.cumAcked {
					below++
				}
				send(nextSend)
				nextSend++
			}
		case r < 63: // fast retransmit
			send(s.cumAcked)
		case r < 63+acks: // cumulative ack, to anywhere up to the highest packet ever sent
			if cum := s.cumAcked + uint32(rng.Intn(int(highSent-s.cumAcked)+1)); cum > s.cumAcked {
				for seq := s.cumAcked; seq < cum; seq++ {
					if at, ok := sent[seq]; ok {
						srtt = (7*srtt + now - at) / 8
						delete(sent, seq)
					}
				}
				s.ackTo(cum, now)
			}
		case r == 99 && step%7 == 0: // timeout: go-back-N
			s.forgetSent()
			clear(sent)
			nextSend = s.cumAcked
		}
		if s.outstanding != len(sent) || s.srtt != srtt {
			t.Fatalf("step %d: %d outstanding, srtt %d; want %d, %d", step, s.outstanding, s.srtt, len(sent), srtt)
		}
		widest = max(widest, len(sent))
	}
	if below < 100 {
		t.Errorf("only %d packets were sent below the ack point", below)
	}
	if widest < 200 || highSent < 10*1024 {
		t.Errorf("at most %d outstanding and %d packets sent: the 1,024-cell ring was neither filled nor wrapped", widest, highSent)
	}
}
