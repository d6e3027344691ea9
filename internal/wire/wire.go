// Package wire implements the R2C2 packet formats of Figure 6 in the
// paper: variable-size source-routed data packets, fixed 16-byte broadcast
// packets announcing flow events, and the routing-update message that
// re-assigns routing protocols to long flows (§3.4, §4.2).
//
// Data packets carry their full network path in the header: 3 bits per hop
// selecting the outgoing port at each node (at most eight links per node),
// in a 128-bit route field — up to 42 hops, "sufficient for current
// rack-scale computers and even non-minimal routing strategies".
// Intermediate nodes simply read route[ridx], increment ridx, and forward.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PacketType distinguishes the R2C2 packet classes in the type field.
type PacketType uint8

// Packet classes.
const (
	TypeData          PacketType = 0x1 // source-routed payload packet
	TypeBroadcast     PacketType = 0x2 // 16-byte flow event broadcast
	TypeRoutingUpdate PacketType = 0x3 // flow -> routing protocol reassignment
	TypeAck           PacketType = 0x4 // transport acknowledgement (reliability; §6)
)

// EventKind is the flow event announced by a broadcast packet.
type EventKind uint8

// Flow events carried in the low nibble of a broadcast packet's type byte.
const (
	EventFlowStart    EventKind = 0x1 // a new flow began (§3.1)
	EventFlowFinish   EventKind = 0x2 // a flow terminated
	EventDemandUpdate EventKind = 0x3 // host-limited flow demand changed (§3.3.2)
	EventRouteChange  EventKind = 0x4 // routing protocol re-assigned (§3.4)
)

func (e EventKind) String() string {
	switch e {
	case EventFlowStart:
		return "flow-start"
	case EventFlowFinish:
		return "flow-finish"
	case EventDemandUpdate:
		return "demand-update"
	case EventRouteChange:
		return "route-change"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(e))
	}
}

// Sizes of the fixed parts of the wire formats.
const (
	BroadcastSize  = 16        // §3.2: "We use 16-byte broadcast packets"
	DataHeaderSize = 36        // fixed data-packet header incl. 128-bit route
	MaxRouteHops   = 42        // 128 bits / 3 bits per hop
	MaxPorts       = 8         // 3-bit port selector => at most 8 links per node
	AckSize        = 16        // fixed acknowledgement size
	MaxPayload     = 64 * 1024 // plen is 16 bits
)

// Errors returned by the decoders.
var (
	ErrShortPacket  = errors.New("wire: packet too short")
	ErrBadChecksum  = errors.New("wire: checksum mismatch")
	ErrBadType      = errors.New("wire: unexpected packet type")
	ErrBadEvent     = errors.New("wire: unknown broadcast event kind")
	ErrRouteTooLong = errors.New("wire: route exceeds 42 hops")
	ErrBadPort      = errors.New("wire: port index exceeds 3 bits")
	ErrTooManyPairs = errors.New("wire: routing update exceeds max pairs")
)

// FlowID identifies a flow rack-wide: the 16-bit source address in the high
// half and a per-source 16-bit sequence number in the low half, giving the
// 4-byte flow identifier of §3.4. Sequence numbers are not recycled, so a
// source that started more than MaxFlowsPerSource flows would reuse a live or
// remembered ID: the simulator rejects such a workload up front (sim.Run).
type FlowID uint32

// MaxFlowsPerSource is how many flows one source can start before its
// 16-bit sequence number wraps.
const MaxFlowsPerSource = 1<<16 - 1

// MakeFlowID builds a FlowID from a source address and per-source sequence.
func MakeFlowID(src uint16, seq uint16) FlowID {
	return FlowID(uint32(src)<<16 | uint32(seq))
}

// Src returns the source address encoded in the flow ID.
func (f FlowID) Src() uint16 { return uint16(f >> 16) }

// Seq returns the per-source flow sequence number.
func (f FlowID) Seq() uint16 { return uint16(f) }

func (f FlowID) String() string { return fmt.Sprintf("%d.%d", f.Src(), f.Seq()) }

// Route is a source route: the outgoing port index to use at each hop.
type Route []uint8

// PackRoute encodes a route at 3 bits per hop into the 16-byte route field.
func PackRoute(route Route) ([16]byte, error) {
	var out [16]byte
	if len(route) > MaxRouteHops {
		return out, ErrRouteTooLong
	}
	for i, port := range route {
		if port >= MaxPorts {
			return out, ErrBadPort
		}
		bit := i * 3
		out[bit/8] |= port << (bit % 8) & 0xFF
		if bit%8 > 5 { // the 3-bit field straddles a byte boundary
			out[bit/8+1] |= port >> (8 - bit%8)
		}
	}
	return out, nil
}

// DataHeader is the decoded header of a data packet (Figure 6): route
// length and index, flow identifier, endpoints, sequence number, payload
// length and the packed route.
type DataHeader struct {
	RLen     uint8  // route length in hops
	RIdx     uint8  // index of the next hop in the route
	Flow     FlowID // 4-byte flow identifier
	Src, Dst uint16 // endpoint addresses (up to 65,536 nodes)
	Seq      uint32 // byte/packet sequence number
	PLen     uint16 // payload length
	Route    [16]byte
}

// EncodeData appends the encoded header and payload to buf and returns the
// extended slice. len(payload) must equal h.PLen.
func EncodeData(buf []byte, h *DataHeader, payload []byte) ([]byte, error) {
	if int(h.RLen) > MaxRouteHops {
		return buf, ErrRouteTooLong
	}
	if len(payload) != int(h.PLen) {
		return buf, fmt.Errorf("wire: payload length %d != plen %d", len(payload), h.PLen)
	}
	off := len(buf)
	var pad [DataHeaderSize]byte // stack scratch: append(make(...)) would heap-allocate the pad
	buf = append(buf, pad[:]...)
	b := buf[off:]
	b[0] = byte(TypeData)
	b[1] = h.RLen
	b[2] = h.RIdx
	binary.BigEndian.PutUint32(b[3:], uint32(h.Flow))
	binary.BigEndian.PutUint16(b[7:], h.Src)
	binary.BigEndian.PutUint16(b[9:], h.Dst)
	binary.BigEndian.PutUint32(b[11:], h.Seq)
	// b[15:17] checksum, filled below.
	binary.BigEndian.PutUint16(b[17:], h.PLen)
	copy(b[19:35], h.Route[:])
	// b[35] reserved.
	// The checksum excludes ridx (b[2]): intermediate nodes increment it in
	// place while forwarding (§3.5), and zero-copy forwarding must not
	// recompute the checksum at every hop.
	ridx := b[2]
	b[2] = 0
	sum := checksum16(b[:DataHeaderSize])
	b[2] = ridx
	binary.BigEndian.PutUint16(b[15:], sum)
	return append(buf, payload...), nil
}

// DecodeDataInto parses a data packet into a caller-supplied header,
// verifying type and checksum — the destination decodes every payload
// packet, so it must not allocate a header per packet. The returned payload
// aliases pkt; on error *h is unspecified.
func DecodeDataInto(pkt []byte, h *DataHeader) ([]byte, error) {
	if len(pkt) < DataHeaderSize {
		return nil, ErrShortPacket
	}
	if PacketType(pkt[0]) != TypeData {
		return nil, ErrBadType
	}
	if int(pkt[1]) > MaxRouteHops {
		// The encoder never emits such a header; reject it so decoding and
		// re-encoding are inverses on accepted packets.
		return nil, ErrRouteTooLong
	}
	stored := binary.BigEndian.Uint16(pkt[15:])
	var zeroed [DataHeaderSize]byte
	copy(zeroed[:], pkt[:DataHeaderSize])
	zeroed[2] = 0 // ridx is hop-mutable and excluded from the checksum
	zeroed[15], zeroed[16] = 0, 0
	if checksum16(zeroed[:]) != stored {
		return nil, ErrBadChecksum
	}
	*h = DataHeader{
		RLen: pkt[1],
		RIdx: pkt[2],
		Flow: FlowID(binary.BigEndian.Uint32(pkt[3:])),
		Src:  binary.BigEndian.Uint16(pkt[7:]),
		Dst:  binary.BigEndian.Uint16(pkt[9:]),
		Seq:  binary.BigEndian.Uint32(pkt[11:]),
		PLen: binary.BigEndian.Uint16(pkt[17:]),
	}
	copy(h.Route[:], pkt[19:35])
	if len(pkt) < DataHeaderSize+int(h.PLen) {
		return nil, ErrShortPacket
	}
	return pkt[DataHeaderSize : DataHeaderSize+int(h.PLen)], nil
}

// Broadcast is the decoded 16-byte broadcast packet of Figure 6. It
// announces a flow event together with the flow's allocation parameters:
// weight, priority, demand in Kbps (up to 4 Tbps), the spanning-tree ID the
// packet is being routed along, and the flow's routing protocol.
type Broadcast struct {
	Event      EventKind
	Src, Dst   uint16
	FlowSeq    uint16 // per-source flow sequence; FlowID = MakeFlowID(Src, FlowSeq)
	Weight     uint8
	Priority   uint8
	DemandKbps uint32
	Tree       uint8 // broadcast spanning-tree identifier
	RP         uint8 // routing protocol identifier
}

// Flow returns the 4-byte flow identifier announced by this broadcast.
func (b *Broadcast) Flow() FlowID { return MakeFlowID(b.Src, b.FlowSeq) }

// EncodeBroadcast encodes a broadcast event into exactly 16 bytes.
func EncodeBroadcast(b *Broadcast) [BroadcastSize]byte {
	var out [BroadcastSize]byte
	out[0] = byte(TypeBroadcast)<<4 | byte(b.Event)&0xF
	binary.BigEndian.PutUint16(out[1:], b.Src)
	binary.BigEndian.PutUint16(out[3:], b.Dst)
	binary.BigEndian.PutUint16(out[5:], b.FlowSeq)
	out[7] = b.Weight
	out[8] = b.Priority
	binary.BigEndian.PutUint32(out[9:], b.DemandKbps)
	out[13] = b.Tree
	out[14] = b.RP
	out[15] = checksum8(out[:15])
	return out
}

// DecodeBroadcast is DecodeBroadcastInto into a new Broadcast.
func DecodeBroadcast(pkt []byte) (*Broadcast, error) {
	var b Broadcast
	if err := DecodeBroadcastInto(pkt, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// DecodeBroadcastInto parses and validates a 16-byte broadcast packet into b
// (a forwarding hop's stack). Any event kind but the four flow events is an
// error; on an error b is left unchanged.
func DecodeBroadcastInto(pkt []byte, b *Broadcast) error {
	if len(pkt) < BroadcastSize {
		return ErrShortPacket
	}
	if PacketType(pkt[0]>>4) != TypeBroadcast {
		return ErrBadType
	}
	if checksum8(pkt[:15]) != pkt[15] {
		return ErrBadChecksum
	}
	if ev := EventKind(pkt[0] & 0xF); ev < EventFlowStart || ev > EventRouteChange {
		return ErrBadEvent
	}
	*b = Broadcast{
		Event:      EventKind(pkt[0] & 0xF),
		Src:        binary.BigEndian.Uint16(pkt[1:]),
		Dst:        binary.BigEndian.Uint16(pkt[3:]),
		FlowSeq:    binary.BigEndian.Uint16(pkt[5:]),
		Weight:     pkt[7],
		Priority:   pkt[8],
		DemandKbps: binary.BigEndian.Uint32(pkt[9:]),
		Tree:       pkt[13],
		RP:         pkt[14],
	}
	return nil
}

// RoutingPair is one {flow, routing protocol} assignment in a routing
// update (§3.4: "up to 300 {flow, routing protocol} pairs can be advertised
// using a single 1,500-byte packet" at 4 bytes of flow ID + 1 byte of
// protocol per pair).
type RoutingPair struct {
	Flow FlowID
	RP   uint8
}

// MaxRoutingPairs is the pair capacity of a single 1500-byte MTU update.
const MaxRoutingPairs = (1500 - routingUpdateHeader) / 5

const routingUpdateHeader = 4 // type + count(2) + checksum

// EncodeRoutingUpdate encodes a routing update message.
func EncodeRoutingUpdate(pairs []RoutingPair) ([]byte, error) {
	if len(pairs) > MaxRoutingPairs {
		return nil, ErrTooManyPairs
	}
	out := make([]byte, routingUpdateHeader+5*len(pairs))
	out[0] = byte(TypeRoutingUpdate)
	binary.BigEndian.PutUint16(out[1:], uint16(len(pairs)))
	for i, p := range pairs {
		off := routingUpdateHeader + 5*i
		binary.BigEndian.PutUint32(out[off:], uint32(p.Flow))
		out[off+4] = p.RP
	}
	out[3] = 0
	out[3] = checksum8(out)
	return out, nil
}

// checksum8 is a one's-complement-style 8-bit checksum: the returned byte
// makes the byte sum of data plus checksum equal 0xFF mod 256.
func checksum8(data []byte) uint8 {
	var sum uint16
	for _, b := range data {
		sum += uint16(b)
		sum = (sum & 0xFF) + (sum >> 8)
	}
	return uint8(^sum)
}

// checksum16 folds 16-bit big-endian words with end-around carry, the
// classic Internet checksum, over the header with the checksum field zero.
func checksum16(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}
