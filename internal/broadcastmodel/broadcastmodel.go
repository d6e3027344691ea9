// Package broadcastmodel quantifies R2C2's control-plane traffic: the
// broadcast overhead analysis of §3.2 / Figure 9 and the decentralized-
// versus-centralized control-traffic comparison of §5.2 / Figure 19.
//
// The model follows the paper's accounting exactly. A flow event broadcast
// costs (n-1) tree edges × 16 bytes. A flow of S bytes routed minimally
// crosses on average H links (H = mean inter-node hop distance), putting
// S·H bytes on the wire, so the per-flow relative broadcast overhead is
// 2·16·(n-1) / (S·H) — 26.66% for a 10 KB flow on a 512-node 3D torus and
// 0.026% for a 10 MB flow, reproducing the §3.2 numbers.
package broadcastmodel

import (
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// EventBytes returns the total wire bytes of one flow-event broadcast on a
// rack of n nodes: one 16-byte packet crossing each of the n-1 tree edges.
func EventBytes(n int) float64 {
	return float64(wire.BroadcastSize) * float64(n-1)
}

// FlowOverhead returns the relative broadcast overhead of one flow of
// sizeBytes on graph g: (start + finish broadcast bytes) divided by the
// bytes the flow itself puts on the wire under minimal routing.
func FlowOverhead(g *topology.Graph, sizeBytes float64) float64 {
	wireBytes := sizeBytes * g.MeanNodeDistance()
	return 2 * EventBytes(g.Nodes()) / wireBytes
}

// CapacityFraction returns the fraction of total network capacity consumed
// by broadcast traffic for a workload where a fraction `smallByteFrac` of
// all bytes is carried by small flows of smallBytes and the rest by
// long flows of longBytes — the Figure 9 curve.
//
// Derivation: per byte of traffic, the expected number of broadcasts is
// smallByteFrac/smallBytes + (1-smallByteFrac)/longBytes flow-starts (each
// with a matching finish). Broadcast wire-bytes per traffic wire-byte then
// follows from the per-flow accounting above.
func CapacityFraction(g *topology.Graph, smallByteFrac, smallBytes, longBytes float64) float64 {
	flowsPerByte := smallByteFrac/smallBytes + (1-smallByteFrac)/longBytes
	bcastBytesPerByte := 2 * EventBytes(g.Nodes()) * flowsPerByte
	dataWireBytesPerByte := g.MeanNodeDistance()
	return bcastBytesPerByte / (bcastBytesPerByte + dataWireBytesPerByte)
}

// ControlTraffic compares the two control-plane designs of Figure 19 for
// one flow arrival (or departure) event, returning bytes on the wire.
type ControlTraffic struct {
	// Decentralized: the R2C2 design — one broadcast per flow event,
	// independent of how many flows are active.
	Decentralized float64
	// Centralized: a Fastpass-like controller — the source unicasts the
	// event to the controller, the controller recomputes and unicasts to
	// every node sourcing flows a message with the new rates for its flows.
	Centralized float64
}

// RateMsgHeaderBytes is the fixed header of a centralized rate-update
// unicast; each flow entry carries a 4-byte flow ID and 4-byte rate.
const (
	RateMsgHeaderBytes = 16
	RateEntryBytes     = 8
)

// PerEvent models one flow event on a rack with n nodes where
// `flowsPerServer` long flows are live at every node. H is the mean hop
// distance (unicasts cross H links on average).
func PerEvent(g *topology.Graph, flowsPerServer int) ControlTraffic {
	n := float64(g.Nodes())
	h := g.MeanNodeDistance()
	event := float64(wire.BroadcastSize)

	// Decentralized: one 16-byte broadcast over n-1 tree edges.
	dec := EventBytes(g.Nodes())

	// Centralized: event unicast to the controller (H hops), then one rate
	// message to each of the n source nodes carrying flowsPerServer
	// entries, each crossing H hops.
	rateMsg := float64(RateMsgHeaderBytes + RateEntryBytes*flowsPerServer)
	cen := event*h + n*rateMsg*h

	return ControlTraffic{Decentralized: dec, Centralized: cen}
}
