package emu

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"time"

	"r2c2/internal/core"
	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// This file is the emulator's fault-injection layer, with semantics
// mirroring the simulator's (the sim/emu parity contract, DESIGN.md §10):
// ports go dark at injection time and everything queued on them is lost;
// after the detection delay the routing state (table, broadcast FIB,
// link-ID mapping) is swapped atomically, flows with crashed endpoints are
// abandoned, and every surviving flow is re-announced. Overlapping
// failures accumulate; every swap recomputes the fabric from the CURRENT
// union and an epoch guard (faultSeq/coveredSeq) makes stale detection
// callbacks no-op.

// cableLinks returns the directed link IDs of the physical cable between a
// and b (either or both directions may be absent).
func (r *Rack) cableLinks(a, b topology.NodeID) []topology.LinkID {
	var lids []topology.LinkID
	if ab, ok := r.cfg.Graph.LinkBetween(a, b); ok {
		lids = append(lids, ab)
	}
	if ba, ok := r.cfg.Graph.LinkBetween(b, a); ok {
		lids = append(lids, ba)
	}
	return lids
}

// FailLink fails both directions of the cable between a and b: the ports
// go dark immediately (queued and future packets are lost) and after
// `detect` on the rack clock every node switches to the degraded fabric
// and re-announces its flows. Errors if the cable does not exist, is
// already down, or the failure would partition the rack.
func (r *Rack) FailLink(a, b topology.NodeID, detect time.Duration) error {
	r.faultMu.Lock()
	var added []topology.LinkID
	for _, lid := range r.cableLinks(a, b) {
		if !r.failedLinks[lid] {
			r.failedLinks[lid] = true
			added = append(added, lid)
		}
	}
	if len(added) == 0 {
		r.faultMu.Unlock()
		return fmt.Errorf("emu: no healthy link between %d and %d", a, b)
	}
	if _, _, err := r.cfg.Graph.WithoutLinksAndNodes(r.failedLinks, r.deadNodes); err != nil {
		for _, lid := range added {
			r.failedLinks[lid] = false
		}
		r.faultMu.Unlock()
		return err
	}
	for _, lid := range added {
		r.ports[lid].dead.Store(true)
	}
	r.faultSeq++
	r.faultMu.Unlock()
	r.scheduleSwap(detect)
	return nil
}

// FailNode crashes a node: all its cables go dark immediately and its
// senders stop; after `detect` survivors swap to the degraded fabric,
// purge the dead node's flows from their views, abandon flows to or from
// it, and re-announce their own. Errors if the node is already dead or the
// crash would partition the survivors.
func (r *Rack) FailNode(dead topology.NodeID, detect time.Duration) error {
	if int(dead) < 0 || int(dead) >= r.cfg.Graph.Nodes() {
		return fmt.Errorf("emu: node %d out of range", dead)
	}
	r.faultMu.Lock()
	if r.deadNodes[dead] {
		r.faultMu.Unlock()
		return fmt.Errorf("emu: node %d already failed", dead)
	}
	r.deadNodes[dead] = true
	var added []topology.LinkID
	for _, links := range [][]topology.LinkID{r.cfg.Graph.Out(dead), r.cfg.Graph.In(dead)} {
		for _, lid := range links {
			if !r.failedLinks[lid] {
				r.failedLinks[lid] = true
				added = append(added, lid)
			}
		}
	}
	if _, _, err := r.cfg.Graph.WithoutLinksAndNodes(r.failedLinks, r.deadNodes); err != nil {
		r.deadNodes[dead] = false
		for _, lid := range added {
			r.failedLinks[lid] = false
		}
		r.faultMu.Unlock()
		return err
	}
	for _, lid := range added {
		r.ports[lid].dead.Store(true)
	}
	// The crashed node stops sending instantly: abort its senders and drop
	// its local flow state. Other nodes' views keep the flows until the
	// detection delay elapses (they have not noticed yet).
	n := r.nodes[dead]
	n.mu.Lock()
	for id, f := range n.flows {
		f.abort(abortEndpoint)
		delete(n.flows, id)
	}
	n.mu.Unlock()
	r.faultSeq++
	r.faultMu.Unlock()
	r.scheduleSwap(detect)
	return nil
}

// RepairLink returns both directions of the cable between a and b to
// service; after `detect` every node swaps to the re-expanded fabric and
// re-announces its flows (§3.2's recovery half). Cables of a crashed node
// cannot be repaired while it is down.
func (r *Rack) RepairLink(a, b topology.NodeID, detect time.Duration) error {
	r.faultMu.Lock()
	lids := r.cableLinks(a, b)
	if len(lids) > 0 && (r.deadNodes[a] || r.deadNodes[b]) {
		r.faultMu.Unlock()
		return fmt.Errorf("emu: cannot repair link %d-%d of a failed node", a, b)
	}
	var repaired []topology.LinkID
	for _, lid := range lids {
		if r.failedLinks[lid] {
			r.failedLinks[lid] = false
			repaired = append(repaired, lid)
		}
	}
	if len(repaired) == 0 {
		r.faultMu.Unlock()
		return fmt.Errorf("emu: no failed link between %d and %d", a, b)
	}
	for _, lid := range repaired {
		r.ports[lid].dead.Store(false)
	}
	r.faultSeq++
	r.faultMu.Unlock()
	r.scheduleSwap(detect)
	return nil
}

// SetLinkDropProb installs a random-drop probability p in [0,1] on both
// directions of the cable between a and b. p = 0 removes the loss.
func (r *Rack) SetLinkDropProb(a, b topology.NodeID, p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("emu: drop probability %v out of [0,1]", p)
	}
	lids := r.cableLinks(a, b)
	if len(lids) == 0 {
		return fmt.Errorf("emu: no link between %d and %d", a, b)
	}
	r.lossMu.Lock()
	if r.lossRng == nil && p > 0 {
		r.lossRng = rand.New(rand.NewSource(r.cfg.Seed))
	}
	r.lossMu.Unlock()
	for _, lid := range lids {
		r.ports[lid].dropBits.Store(math.Float64bits(p))
	}
	return nil
}

// Reroutes counts fabric swaps performed after fault detections — the
// emulator's equivalent of sim.R2C2.FailureReroutes.
func (r *Rack) Reroutes() uint64 { return r.reroutes.Load() }

// FaultErrors counts schedule events that failed to inject (ApplyFaults
// replays asynchronously and cannot return them).
func (r *Rack) FaultErrors() uint64 { return r.faultErrs.Load() }

// scheduleSwap arms one detection timer: after `detect` on the rack clock
// the fabric is recomputed and swapped (unless a newer swap already
// covered this injection).
func (r *Rack) scheduleSwap(detect time.Duration) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		select {
		case <-r.clk.after(detect):
			r.swapFabric()
		case <-r.ctx.Done():
		}
	}()
}

// swapFabric is the detection-fire path: it recomputes the degraded fabric
// from the CURRENT failure state (never a snapshot), purges and abandons
// flows with crashed endpoints, swaps the routing state atomically, and
// re-announces every surviving flow (§3.2: "nodes broadcast information
// about all their ongoing flows"). Serialised under faultMu so swaps
// install in injection order.
func (r *Rack) swapFabric() {
	r.faultMu.Lock()
	defer r.faultMu.Unlock()
	if r.coveredSeq >= r.faultSeq {
		return // a newer swap already covers this injection
	}
	r.coveredSeq = r.faultSeq

	var st *fabricState
	dead := slices.Clone(r.deadNodes)
	if !slices.Contains(r.failedLinks, true) && !slices.Contains(dead, true) {
		// Fully repaired: back to the pristine physical fabric.
		st = &fabricState{
			tab:  r.tab,
			fib:  topology.NewBroadcastFIB(r.cfg.Graph, r.cfg.TreesPerSource, r.cfg.Seed),
			dead: dead,
		}
	} else {
		sub, mapping, err := r.cfg.Graph.WithoutLinksAndNodes(r.failedLinks, r.deadNodes)
		if err != nil {
			// Every injection validated the union it created, and
			// connectivity is monotone in the failed set.
			panic(fmt.Sprintf("emu: degraded fabric invalid at detection time: %v", err))
		}
		st = &fabricState{
			tab:     routing.NewTable(sub),
			fib:     topology.NewBroadcastFIB(sub, r.cfg.TreesPerSource, r.cfg.Seed),
			linkMap: mapping,
			dead:    dead,
		}
	}

	// Abandon flows with crashed endpoints and purge them from every view
	// BEFORE the swap goes live: no re-announce may route toward an
	// unreachable endpoint and no view may keep their bandwidth reserved.
	r.purgeDead(st.dead)

	// Rate computation must run against the new fabric's capacities.
	for _, n := range r.nodes {
		n.mu.Lock()
		n.rc = core.NewRateComputer(st.tab, r.cfg.LinkMbps*1e6, r.cfg.Headroom)
		n.mu.Unlock()
	}

	r.fabric.Store(st)
	r.reroutes.Add(1)

	// Re-announce every live flow over the new broadcast trees.
	var anns []*wire.Broadcast
	for _, n := range r.nodes {
		if st.dead[n.id] {
			continue
		}
		n.mu.Lock()
		// Sorted iteration: the flow→tree pairing rotates nextTree per
		// flow, so walking the map in random order would hand the same
		// flow a different broadcast tree on every run.
		ids := make([]wire.FlowID, 0, len(n.flows))
		for id := range n.flows {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			anns = append(anns, n.flows[id].Info.StartBroadcast(n.pickTree(r.cfg.TreesPerSource)))
		}
		n.mu.Unlock()
	}
	for _, b := range anns {
		r.flood(b)
	}
}

// purgeDead abandons every flow with a dead endpoint and drops it from every
// node's view, leaving no tombstone, and from the flows its source sends.
func (r *Rack) purgeDead(dead []bool) {
	r.flowsMu.Lock()
	for _, f := range r.flows {
		if dead[f.Info.Src] || dead[f.Info.Dst] {
			f.abort(abortEndpoint)
		}
	}
	r.flowsMu.Unlock()
	for _, n := range r.nodes {
		n.mu.Lock()
		n.vis.Purge(dead)
		maps.DeleteFunc(n.flows, func(_ wire.FlowID, f *Flow) bool { return dead[f.Info.Src] || dead[f.Info.Dst] })
		n.mu.Unlock()
	}
}

// ApplyFaults replays a fault schedule against the rack on its own
// goroutine, event times measured on the rack clock from the moment of the
// call. The schedule should be Validate-clean for the rack's graph;
// injection failures increment FaultErrors. Call after Start.
func (r *Rack) ApplyFaults(sched faults.Schedule) {
	events := sched.Sorted()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		startNs := r.clk.nowNs()
		for _, ev := range events {
			if wait := time.Duration(int64(ev.At) - (r.clk.nowNs() - startNs)); wait > 0 {
				select {
				case <-r.clk.after(wait):
				case <-r.ctx.Done():
					return
				}
			}
			var err error
			switch ev.Kind {
			case faults.LinkDown:
				err = r.FailLink(ev.A, ev.B, ev.Detect)
			case faults.LinkRepair:
				err = r.RepairLink(ev.A, ev.B, ev.Detect)
			case faults.NodeDown:
				err = r.FailNode(ev.Node, ev.Detect)
			case faults.LinkDrop:
				err = r.SetLinkDropProb(ev.A, ev.B, ev.DropProb)
			}
			if err != nil {
				r.faultErrs.Add(1)
			}
		}
	}()
}
