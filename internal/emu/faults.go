package emu

import (
	"math"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/wire"
)

// The emulator's fault injection (DESIGN.md §10): the failure state, its
// rules and epoch guard are faults.State, as in the simulator; this file
// owns the ports, the detection timers and the locks.

// InjectFault is sim.R2C2.InjectFault on the rack clock: under faultMu the
// failure state judges e, a crashed node stops sending, and the links e
// changed go dark, come back or start dropping at random; e.Detect later
// the fabric is rebuilt and swapped, unless a newer swap already covered
// it. Flows to or from a crashed node are abandoned, and Wait on them
// errors.
func (r *Rack) InjectFault(e faults.Event) error {
	r.faultMu.Lock()
	lids, err := r.faults.Apply(e)
	if err == nil && e.Kind == faults.NodeDown {
		// The crashed node stops sending instantly. Other nodes' views
		// keep its flows until the detection delay elapses.
		n := r.nodes[e.Node]
		_, dead := r.faults.Failed()
		n.mu.Lock()
		for _, f := range n.Abandon(dead) {
			f.abort(abortEndpoint)
		}
		n.mu.Unlock()
	}
	for _, lid := range lids {
		if e.Kind == faults.LinkDrop {
			r.ports[lid].dropBits.Store(math.Float64bits(e.DropProb))
		} else {
			r.ports[lid].dead.Store(e.Kind != faults.LinkRepair)
		}
	}
	r.faultMu.Unlock()
	if err != nil || e.Kind == faults.LinkDrop {
		return err
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		select {
		case <-r.clk.after(e.Detect):
			r.swapFabric()
		case <-r.ctx.Done():
		}
	}()
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
	st := r.intact.Degrade(r.faults)
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
			if err := r.InjectFault(ev); err != nil {
				r.faultErrs.Add(1)
			}
		}
	}()
}
