package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWireRoundTrip feeds arbitrary bytes to every decoder. Decoders must
// never panic, and any packet a decoder accepts must re-encode to a stable
// fixpoint: enc1 := encode(decode(pkt)) decodes to the same value and
// re-encodes to exactly enc1. Raw-byte identity with the input is NOT
// required — reserved bytes (e.g. data-header byte 35) are checksummed but
// not decoded, so an adversarial valid input can differ from its canonical
// re-encoding. DecodeBroadcastInto must agree with
// DecodeBroadcast on every input, errors included.
func FuzzWireRoundTrip(f *testing.F) {
	// Valid seeds, one per packet class.
	bc := EncodeBroadcast(&Broadcast{
		Event: EventFlowStart, Src: 3, Dst: 500, FlowSeq: 7,
		Weight: 2, Priority: 1, DemandKbps: 123456, Tree: 1, RP: 2,
	})
	f.Add(bc[:])

	route, err := PackRoute(Route{1, 2, 3, 4, 5, 6, 7, 0, 1})
	if err != nil {
		f.Fatal(err)
	}
	data, err := EncodeData(nil, &DataHeader{
		RLen: 9, RIdx: 2, Flow: MakeFlowID(3, 7), Src: 3, Dst: 500,
		Seq: 1 << 20, PLen: 5, Route: route,
	}, []byte("hello"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	upd, err := EncodeRoutingUpdate([]RoutingPair{{Flow: MakeFlowID(1, 2), RP: 3}, {Flow: MakeFlowID(4, 5), RP: 0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(upd)

	// A packet of the ack class, which no decoder here accepts.
	ack := bytes.Repeat([]byte{0}, AckSize)
	ack[0] = byte(TypeAck)
	f.Add(ack)

	// Corrupt seeds: flipped checksum, truncation, junk, empty.
	bad := append([]byte(nil), bc[:]...)
	bad[15] ^= 0xFF
	f.Add(bad)
	f.Add(data[:DataHeaderSize-1])
	f.Add(bytes.Repeat([]byte{0xA5}, 64))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, pkt []byte) {
		decodeBroadcastBoth(t, pkt)
		if b, err := DecodeBroadcast(pkt); err == nil {
			enc1 := EncodeBroadcast(b)
			b2, err := DecodeBroadcast(enc1[:])
			if err != nil {
				t.Fatalf("re-decode broadcast: %v", err)
			}
			if *b2 != *b {
				t.Fatalf("broadcast round trip: %+v != %+v", b2, b)
			}
			if enc2 := EncodeBroadcast(b2); enc2 != enc1 {
				t.Fatalf("broadcast re-encode not a fixpoint")
			}
		}

		var h, h2 DataHeader
		if payload, err := DecodeDataInto(pkt, &h); err == nil {
			enc1, err := EncodeData(nil, &h, payload)
			if err != nil {
				t.Fatalf("re-encode data: %v", err)
			}
			payload2, err := DecodeDataInto(enc1, &h2)
			if err != nil {
				t.Fatalf("re-decode data: %v", err)
			}
			if h2 != h || !bytes.Equal(payload2, payload) {
				t.Fatalf("data round trip: %+v != %+v", h2, h)
			}
			enc2, err := EncodeData(nil, &h2, payload2)
			if err != nil || !bytes.Equal(enc2, enc1) {
				t.Fatalf("data re-encode not a fixpoint (err=%v)", err)
			}
		}

		if pairs, err := DecodeRoutingUpdate(pkt); err == nil {
			enc1, err := EncodeRoutingUpdate(pairs)
			if err != nil {
				t.Fatalf("re-encode routing update: %v", err)
			}
			pairs2, err := DecodeRoutingUpdate(enc1)
			if err != nil {
				t.Fatalf("re-decode routing update: %v", err)
			}
			if !reflect.DeepEqual(pairs2, pairs) {
				t.Fatalf("routing update round trip: %v != %v", pairs2, pairs)
			}
			enc2, err := EncodeRoutingUpdate(pairs2)
			if err != nil || !bytes.Equal(enc2, enc1) {
				t.Fatalf("routing update re-encode not a fixpoint (err=%v)", err)
			}
		}

		// Route packing: any 16-byte prefix unpacks at every legal length
		// and survives its own round trip.
		if len(pkt) >= 16 {
			var packed [16]byte
			copy(packed[:], pkt)
			route, err := UnpackRoute(packed, MaxRouteHops)
			if err != nil {
				t.Fatalf("unpack full route: %v", err)
			}
			repacked, err := PackRoute(route)
			if err != nil {
				t.Fatalf("repack route: %v", err)
			}
			route2, err := UnpackRoute(repacked, MaxRouteHops)
			if err != nil || !reflect.DeepEqual(route2, route) {
				t.Fatalf("route round trip: %v != %v (err=%v)", route2, route, err)
			}
		}
	})
}
