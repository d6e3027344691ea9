package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFlowID(t *testing.T) {
	f := MakeFlowID(511, 12345)
	if f.Src() != 511 || f.Seq() != 12345 {
		t.Fatalf("FlowID round trip: src=%d seq=%d", f.Src(), f.Seq())
	}
	if f.String() != "511.12345" {
		t.Errorf("String = %q", f.String())
	}
}

func TestPackRouteRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > MaxRouteHops {
			raw = raw[:MaxRouteHops]
		}
		route := make(Route, len(raw))
		for i, b := range raw {
			route[i] = b & 0x7
		}
		packed, err := PackRoute(route)
		if err != nil {
			return false
		}
		got, err := UnpackRoute(packed, len(route))
		if err != nil {
			return false
		}
		if len(got) != len(route) {
			return false
		}
		for i := range got {
			if got[i] != route[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPackRouteMax(t *testing.T) {
	route := make(Route, MaxRouteHops)
	for i := range route {
		route[i] = uint8(i % 8)
	}
	packed, err := PackRoute(route)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnpackRoute(packed, MaxRouteHops)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != route[i] {
			t.Fatalf("hop %d: got %d want %d", i, got[i], route[i])
		}
	}
}

func TestPackRouteErrors(t *testing.T) {
	if _, err := PackRoute(make(Route, MaxRouteHops+1)); err != ErrRouteTooLong {
		t.Errorf("long route: err = %v", err)
	}
	if _, err := PackRoute(Route{8}); err != ErrBadPort {
		t.Errorf("bad port: err = %v", err)
	}
	if _, err := UnpackRoute([16]byte{}, MaxRouteHops+1); err != ErrRouteTooLong {
		t.Errorf("long unpack: err = %v", err)
	}
}

func TestDataRoundTrip(t *testing.T) {
	route, err := PackRoute(Route{1, 2, 3, 4, 5, 0, 7})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("rack-scale payload")
	h := &DataHeader{
		RLen:  7,
		RIdx:  2,
		Flow:  MakeFlowID(17, 99),
		Src:   17,
		Dst:   403,
		Seq:   0xDEADBEEF,
		PLen:  uint16(len(payload)),
		Route: route,
	}
	pkt, err := EncodeData(nil, h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != DataHeaderSize+len(payload) {
		t.Fatalf("packet size = %d", len(pkt))
	}
	var got DataHeader
	gotPayload, err := DecodeDataInto(pkt, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got != *h {
		t.Fatalf("header round trip:\n got %+v\nwant %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload round trip: %q", gotPayload)
	}
}

// TestDecodeDataIntoAllocFree: a destination decodes every data packet it
// receives, into a header on its own stack.
func TestDecodeDataIntoAllocFree(t *testing.T) {
	payload := make([]byte, 1400)
	pkt, err := EncodeData(nil, &DataHeader{RLen: 4, Flow: MakeFlowID(3, 7), Src: 3, Dst: 12,
		Seq: 9, PLen: uint16(len(payload))}, payload)
	if err != nil {
		t.Fatal(err)
	}
	var h DataHeader
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := DecodeDataInto(pkt, &h); err != nil || len(got) != len(payload) {
			t.Fatalf("decode: %d payload bytes, %v", len(got), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per decode, want 0", allocs)
	}
}

func TestDataChecksumDetectsCorruption(t *testing.T) {
	h := &DataHeader{RLen: 3, Flow: MakeFlowID(1, 2), Src: 1, Dst: 2, PLen: 4}
	pkt, err := EncodeData(nil, h, []byte{9, 9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		corrupt := make([]byte, len(pkt))
		copy(corrupt, pkt)
		i := rng.Intn(DataHeaderSize)
		if i == 2 {
			continue // ridx is hop-mutable and deliberately unprotected
		}
		flip := byte(1 << rng.Intn(8))
		corrupt[i] ^= flip
		_, err := DecodeDataInto(corrupt, &DataHeader{})
		if err == nil {
			t.Fatalf("single-bit header corruption at byte %d undetected", i)
		}
	}
}

func TestDataErrors(t *testing.T) {
	if _, err := DecodeDataInto(make([]byte, 4), &DataHeader{}); err != ErrShortPacket {
		t.Errorf("short: %v", err)
	}
	pkt, _ := EncodeData(nil, &DataHeader{PLen: 0}, nil)
	pkt[0] = byte(TypeAck)
	if _, err := DecodeDataInto(pkt, &DataHeader{}); err != ErrBadType {
		t.Errorf("bad type: %v", err)
	}
	// Truncated payload.
	pkt2, _ := EncodeData(nil, &DataHeader{PLen: 10}, make([]byte, 10))
	if _, err := DecodeDataInto(pkt2[:len(pkt2)-1], &DataHeader{}); err != ErrShortPacket {
		t.Errorf("truncated payload: %v", err)
	}
	// Mismatched payload length at encode time.
	if _, err := EncodeData(nil, &DataHeader{PLen: 5}, make([]byte, 4)); err == nil {
		t.Error("plen mismatch accepted")
	}
	if _, err := EncodeData(nil, &DataHeader{RLen: MaxRouteHops + 1}, nil); err != ErrRouteTooLong {
		t.Errorf("rlen too long: %v", err)
	}
}

func TestBroadcastRoundTrip(t *testing.T) {
	f := func(src, dst, seq uint16, weight, prio, tree, rp uint8, demand uint32, kind uint8) bool {
		b := &Broadcast{
			Event:      EventKind(kind%4 + 1),
			Src:        src,
			Dst:        dst,
			FlowSeq:    seq,
			Weight:     weight,
			Priority:   prio,
			DemandKbps: demand,
			Tree:       tree,
			RP:         rp,
		}
		pkt := EncodeBroadcast(b)
		got, err := DecodeBroadcast(pkt[:])
		if err != nil {
			return false
		}
		return *got == *b && got.Flow() == MakeFlowID(src, seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBroadcastIs16Bytes(t *testing.T) {
	pkt := EncodeBroadcast(&Broadcast{Event: EventFlowStart})
	if len(pkt) != 16 || BroadcastSize != 16 {
		t.Fatalf("broadcast packet must be exactly 16 bytes (§3.2)")
	}
}

func TestBroadcastChecksumDetectsCorruption(t *testing.T) {
	pkt := EncodeBroadcast(&Broadcast{Event: EventFlowStart, Src: 3, Dst: 77, DemandKbps: 123456})
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		corrupt := pkt
		i := rng.Intn(BroadcastSize)
		corrupt[i] ^= byte(1 << rng.Intn(8))
		if _, err := DecodeBroadcast(corrupt[:]); err == nil {
			t.Fatalf("single-bit broadcast corruption at byte %d undetected", i)
		}
	}
}

// Every malformed broadcast class is rejected with its error, by
// DecodeBroadcast and DecodeBroadcastInto alike.
func TestBroadcastErrors(t *testing.T) {
	if err := decodeBroadcastBoth(t, make([]byte, 8)); err != ErrShortPacket {
		t.Errorf("short: %v", err)
	}
	pkt := EncodeBroadcast(&Broadcast{Event: EventFlowStart})
	pkt[0] = byte(TypeData) << 4
	if err := decodeBroadcastBoth(t, pkt[:]); err != ErrBadType {
		t.Errorf("bad type: %v", err)
	}
	pkt = EncodeBroadcast(&Broadcast{Event: EventFlowStart, Src: 3})
	pkt[15] ^= 1
	if err := decodeBroadcastBoth(t, pkt[:]); err != ErrBadChecksum {
		t.Errorf("checksum: %v", err)
	}
	for ev := EventKind(0); ev < 16; ev++ {
		pkt := EncodeBroadcast(&Broadcast{Event: ev, Src: 3, Dst: 9, DemandKbps: 7})
		err := decodeBroadcastBoth(t, pkt[:])
		if valid := ev >= EventFlowStart && ev <= EventRouteChange; valid != (err == nil) || !valid && err != ErrBadEvent {
			t.Errorf("event kind %d: %v", ev, err)
		}
	}
}

// decodeBroadcastBoth decodes pkt with DecodeBroadcast and with
// DecodeBroadcastInto, fails t unless the two agree on the error and the
// broadcast (an error leaves Into's target as it was), and returns the error.
func decodeBroadcastBoth(t *testing.T, pkt []byte) error {
	t.Helper()
	b, err := DecodeBroadcast(pkt)
	into := Broadcast{Event: EventRouteChange, Src: 0xBEEF, Tree: 7}
	before := into
	errInto := DecodeBroadcastInto(pkt, &into)
	switch {
	case errInto != err:
		t.Fatalf("% x: DecodeBroadcastInto error %v, DecodeBroadcast %v", pkt, errInto, err)
	case err != nil && into != before:
		t.Fatalf("% x: DecodeBroadcastInto wrote %+v on error %v", pkt, into, err)
	case err == nil && into != *b:
		t.Fatalf("% x: DecodeBroadcastInto %+v, DecodeBroadcast %+v", pkt, into, *b)
	}
	return err
}

func TestEventKindString(t *testing.T) {
	names := map[EventKind]string{
		EventFlowStart:    "flow-start",
		EventFlowFinish:   "flow-finish",
		EventDemandUpdate: "demand-update",
		EventRouteChange:  "route-change",
		EventKind(9):      "EventKind(9)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// UnpackRoute decodes rlen hops from a packed route field, the inverse of
// PackRoute. No node reads a packed route back, so only the round-trip and
// fuzz tests need it.
func UnpackRoute(packed [16]byte, rlen int) (Route, error) {
	if rlen > MaxRouteHops {
		return nil, ErrRouteTooLong
	}
	route := make(Route, rlen)
	for i := 0; i < rlen; i++ {
		bit := i * 3
		v := packed[bit/8] >> (bit % 8)
		if bit%8 > 5 {
			v |= packed[bit/8+1] << (8 - bit%8)
		}
		route[i] = v & 0x7
	}
	return route, nil
}
