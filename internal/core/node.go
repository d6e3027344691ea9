package core

import (
	"slices"

	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// Sender is a backend's handle on a flow its node sources, holding the
// flow's one FlowInfo.
type Sender interface {
	comparable
	Info() *FlowInfo
}

// Node is one R2C2 node's protocol state (§3.1–3.2), without time, packets
// or locks: its column of a Visibility, the flows it sources in creation
// order, and the cursor rotating its announcements over its broadcast
// trees. A change to its own flows updates its own view first and returns
// the broadcast for the backend to flood; an origin applies none of its own.
type Node[F Sender] struct {
	ID    topology.NodeID
	Col   int // the node's column of vis
	vis   *Visibility
	trees uint8
	tree  uint8 // the next announcement's tree
	flows []F
}

// NewNode returns node id holding column col of vis, announcing on trees
// broadcast trees.
func NewNode[F Sender](id topology.NodeID, vis *Visibility, col, trees int) Node[F] {
	return Node[F]{ID: id, Col: col, vis: vis, trees: uint8(trees)}
}

// Flows returns the node's live flows in creation order, to read only.
func (n *Node[F]) Flows() []F { return n.flows }

func (n *Node[F]) nextTree() uint8 {
	t := n.tree
	n.tree = (n.tree + 1) % n.trees
	return t
}

// Start makes f a live flow of the node.
func (n *Node[F]) Start(f F) wire.Broadcast {
	n.flows = append(n.flows, f)
	n.vis.Hold(n.Col, *f.Info())
	return f.Info().Broadcast(wire.EventFlowStart, n.nextTree())
}

// Finish ends f; ok is false, and there is nothing to flood, if f is not
// live.
func (n *Node[F]) Finish(f F) (b wire.Broadcast, ok bool) {
	i := slices.Index(n.flows, f)
	if i < 0 {
		return b, false
	}
	n.flows = slices.Delete(n.flows, i, i+1)
	n.vis.Finish(n.Col, f.Info().ID)
	return f.Info().Broadcast(wire.EventFlowFinish, n.nextTree()), true
}

// SetDemand announces f's new demand (§3.3.2); ok is false if f is not
// live.
func (n *Node[F]) SetDemand(f F, kbps uint32) (b wire.Broadcast, ok bool) {
	if !slices.Contains(n.flows, f) {
		return b, false
	}
	f.Info().DemandKbps = kbps
	n.vis.Hold(n.Col, *f.Info())
	return f.Info().Broadcast(wire.EventDemandUpdate, n.nextTree()), true
}

// Retransmit returns the node's dropped broadcast b on its next tree
// (§3.2's loss recovery).
func (n *Node[F]) Retransmit(b wire.Broadcast) wire.Broadcast {
	b.Tree = n.nextTree()
	return b
}

// Abandon takes the flows with a dead endpoint off the node, all of them
// once it is dead itself, and returns them. It floods nothing: every view
// purges them at the next fabric.
func (n *Node[F]) Abandon(dead []bool) (gone []F) {
	n.flows = slices.DeleteFunc(n.flows, func(f F) bool {
		if dead[f.Info().Src] || dead[f.Info().Dst] {
			gone = append(gone, f)
			return true
		}
		return false
	})
	return gone
}

// Reannounce is the node's part of a new fabric (§3.2: "nodes broadcast
// information about all their ongoing flows"): it abandons the flows with a
// dead endpoint and returns a start for each one left, in creation order,
// on successive trees.
func (n *Node[F]) Reannounce(dead []bool) (abandoned []F, starts []wire.Broadcast) {
	abandoned = n.Abandon(dead)
	for _, f := range n.flows {
		starts = append(starts, f.Info().Broadcast(wire.EventFlowStart, n.nextTree()))
	}
	return abandoned, starts
}

// Receive applies a flooded broadcast, unless the node is its origin.
func (n *Node[F]) Receive(b *wire.Broadcast) {
	if topology.NodeID(b.Src) != n.ID {
		n.vis.Apply(n.Col, b)
	}
}
