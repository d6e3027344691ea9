package emu

import (
	"math"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// The emulator's fault injection (DESIGN.md §10): the failure state, its
// validation and epoch guard are core.Faults, as in the simulator; this
// file owns the ports, the detection timers and the locks.

// FailLink is sim.R2C2.FailLink on the rack clock: the cable's ports lose
// everything queued or sent into them at once, and after `detect` every
// node switches fabric and re-announces its flows.
func (r *Rack) FailLink(a, b topology.NodeID, detect time.Duration) error {
	return r.inject(true, detect, func() ([]topology.LinkID, error) { return r.faults.FailCable(a, b) })
}

// FailNode is sim.R2C2.FailNode on the rack clock: flows to or from the
// node are abandoned, and Wait on them errors.
func (r *Rack) FailNode(dead topology.NodeID, detect time.Duration) error {
	return r.inject(true, detect, func() ([]topology.LinkID, error) {
		lids, err := r.faults.FailNode(dead)
		if err == nil {
			// The crashed node stops sending instantly. Other nodes' views
			// keep its flows until the detection delay elapses.
			n := r.nodes[dead]
			_, deadSet := r.faults.State()
			n.mu.Lock()
			for _, f := range n.Abandon(deadSet) {
				f.abort(abortEndpoint)
			}
			n.mu.Unlock()
		}
		return lids, err
	})
}

// RepairLink is sim.R2C2.RepairLink on the rack clock.
func (r *Rack) RepairLink(a, b topology.NodeID, detect time.Duration) error {
	return r.inject(false, detect, func() ([]topology.LinkID, error) { return r.faults.RepairCable(a, b) })
}

// inject makes one change to the failure state under faultMu and sets the
// ports it changed dark (or back). After `detect` on the rack clock the
// fabric is rebuilt and swapped, unless a newer swap already covered it.
func (r *Rack) inject(dark bool, detect time.Duration, change func() ([]topology.LinkID, error)) error {
	r.faultMu.Lock()
	lids, err := change()
	for _, lid := range lids {
		r.ports[lid].dead.Store(dark)
	}
	r.faultMu.Unlock()
	if err != nil {
		return err
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		select {
		case <-r.clk.after(detect):
			r.swapFabric()
		case <-r.ctx.Done():
		}
	}()
	return nil
}

// SetLinkDropProb installs a random-drop probability p in [0,1] on both
// directions of the cable between a and b. p = 0 removes the loss.
func (r *Rack) SetLinkDropProb(a, b topology.NodeID, p float64) error {
	lids, err := r.faults.LossyCable(a, b, p)
	if err != nil {
		return err
	}
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

// swapFabric is the detection-fire path: unless a newer swap already
// covered its injection, it builds the fabric of the CURRENT failure state
// (never a snapshot), abandons and purges flows with crashed endpoints,
// swaps the routing state atomically, and re-announces every surviving
// flow. Serialised under faultMu so swaps install in injection order.
func (r *Rack) swapFabric() {
	r.faultMu.Lock()
	defer r.faultMu.Unlock()
	if !r.faults.Due() {
		return
	}
	st := r.faults.Fabric()
	// No re-announce may route toward an unreachable endpoint and no view
	// may keep their bandwidth reserved once the swap is live.
	anns := r.reannounce(st.Dead)
	r.fabric.Store(&st)
	r.reroutes.Add(1)
	r.flood(anns...)
}

// reannounce abandons every flow with a dead endpoint and drops it from
// every node's view, leaving no tombstone, and returns the start of every
// flow left (§3.2: "nodes broadcast information about all their ongoing
// flows").
func (r *Rack) reannounce(dead []bool) []wire.Broadcast {
	r.flowsMu.Lock()
	for _, f := range r.flows {
		if dead[f.info.Src] || dead[f.info.Dst] {
			f.abort(abortEndpoint)
		}
	}
	r.flowsMu.Unlock()
	var anns []wire.Broadcast
	for _, n := range r.nodes {
		n.mu.Lock()
		n.vis.Purge(dead)
		_, starts := n.Reannounce(dead)
		anns = append(anns, starts...)
		n.mu.Unlock()
	}
	return anns
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
			if err := faults.Inject(r, ev, ev.Detect); err != nil {
				r.faultErrs.Add(1)
			}
		}
	}()
}
