// Package fluid is a flow-level (fluid) simulator of R2C2's rate
// allocation: flows arrive, receive water-filled rates, drain their bytes
// at those rates and depart. No packets or queues are modelled, which
// makes 512-node experiments with tens of thousands of flows cheap.
//
// It exists for the rate-accuracy experiments of §5.2 (Figures 15 and 16):
// comparing the rates flows receive under periodic batch recomputation
// (interval ρ) against the ideal of recomputing at every flow event
// (ρ = 0), and for replaying flow traces through the allocator to measure
// recomputation cost (Figure 8).
package fluid

import (
	"fmt"
	"math"
	"sort"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/trafficgen"
	"r2c2/internal/waterfill"
)

// Config parameterises a fluid run.
type Config struct {
	Tab          *routing.Table
	Protocol     routing.Protocol
	CapacityBits float64      // link capacity in bits/s
	Headroom     float64      // §3.3.2 headroom fraction
	Recompute    simtime.Time // ρ; 0 = ideal, recompute at every event
}

// FlowResult reports one flow's life under the fluid model.
type FlowResult struct {
	Index     int // position in the arrival list
	SizeBytes int64
	Started   simtime.Time
	Ended     simtime.Time
	// AvgRateBps is size/(completion time): the per-flow quantity Figures 15
	// and 16 compare across recomputation intervals.
	AvgRateBps float64
}

// TickStat records the active flow population at one recomputation, used by
// the Figure 8 CPU-overhead measurement.
type TickStat struct {
	At    simtime.Time
	Flows int
}

// Result bundles a fluid run's outputs.
type Result struct {
	Flows []FlowResult
	Ticks []TickStat
	// Recomputations counts allocator invocations.
	Recomputations int
}

type activeFlow struct {
	idx       int
	spec      waterfill.Flow
	remaining float64 // bits
	rate      float64
	started   simtime.Time

	// Assigned-rate accounting: Figures 15/16 compare the rates the
	// allocator assigns, so the pre-first-assignment line-rate transient
	// (§3.3.2's headroom burst) is tracked separately.
	assigned     bool
	assignedBits float64
	assignedSecs float64
}

// Run replays the arrival list through the fluid model.
func Run(cfg Config, arrivals []trafficgen.Arrival) *Result {
	if cfg.Tab == nil || len(arrivals) == 0 {
		panic("fluid: missing table or arrivals")
	}
	if cfg.CapacityBits <= 0 {
		panic("fluid: non-positive capacity")
	}
	alloc := waterfill.NewAllocator(waterfill.Config{
		NumLinks: cfg.Tab.Graph().NumLinks(),
		Capacity: cfg.CapacityBits,
		Headroom: cfg.Headroom,
	})

	res := &Result{Flows: make([]FlowResult, len(arrivals))}
	var active []*activeFlow
	now := simtime.Time(0)
	nextArrival := 0
	nextTick := cfg.Recompute

	recompute := func() {
		if len(active) == 0 {
			return
		}
		// Deterministic order: by arrival index (flow ID order).
		sort.Slice(active, func(i, j int) bool { return active[i].idx < active[j].idx })
		specs := make([]waterfill.Flow, len(active))
		for i, f := range active {
			specs[i] = f.spec
		}
		rates := alloc.Allocate(specs)
		for i, f := range active {
			f.rate = rates[i]
			f.assigned = true
		}
		res.Recomputations++
	}

	advance := func(to simtime.Time) {
		dt := (to - now).Seconds()
		if dt > 0 {
			for _, f := range active {
				f.remaining -= f.rate * dt
				if f.assigned {
					f.assignedBits += f.rate * dt
					f.assignedSecs += dt
				}
			}
		}
		now = to
	}

	removeDone := func() bool {
		changed := false
		out := active[:0]
		for _, f := range active {
			if f.remaining <= 1e-6 {
				// AvgRateBps is the time-weighted average ASSIGNED rate; flows
				// that finished before their first assignment (shorter than
				// one interval — never rate-limited, §3.3.2) fall back to
				// the lifetime average.
				avg := float64(arrivals[f.idx].SizeBytes*8) / math.Max((now-f.started).Seconds(), 1e-12)
				if f.assignedSecs > 0 {
					avg = f.assignedBits / f.assignedSecs
				}
				res.Flows[f.idx] = FlowResult{
					Index:      f.idx,
					SizeBytes:  arrivals[f.idx].SizeBytes,
					Started:    f.started,
					Ended:      now,
					AvgRateBps: avg,
				}
				changed = true
				continue
			}
			out = append(out, f)
		}
		active = out
		return changed
	}

	for nextArrival < len(arrivals) || len(active) > 0 {
		// Next event: arrival, earliest departure, or recompute tick.
		next := simtime.Time(math.MaxInt64)
		if nextArrival < len(arrivals) {
			next = arrivals[nextArrival].At
		}
		for _, f := range active {
			if f.rate > 0 {
				dep := now + simtime.FromSeconds(f.remaining/f.rate) + 1
				if dep < next {
					next = dep
				}
			}
		}
		isTick := false
		if cfg.Recompute > 0 && len(active) > 0 && nextTick < next {
			next = nextTick
			isTick = true
		}
		if next == simtime.Time(math.MaxInt64) {
			// Active flows all have zero rate and no more arrivals: the
			// allocator starved them, which cannot happen with positive
			// capacity — fail loudly rather than spin.
			panic(fmt.Sprintf("fluid: %d flows stuck with zero rate", len(active)))
		}

		advance(next)

		departed := removeDone()
		arrived := false
		for nextArrival < len(arrivals) && arrivals[nextArrival].At <= now {
			a := arrivals[nextArrival]
			// Until the next recomputation a flow sends at line rate into
			// the headroom, as in the packet simulator (§3.3.2).
			f := &activeFlow{
				idx: nextArrival,
				spec: waterfill.Flow{
					Phi:      cfg.Tab.Phi(cfg.Protocol, a.Src, a.Dst),
					Weight:   math.Max(float64(a.Weight), 1),
					Priority: a.Priority,
					Demand:   waterfill.Unlimited,
				},
				remaining: float64(a.SizeBytes * 8),
				rate:      cfg.CapacityBits,
				started:   now,
			}
			active = append(active, f)
			nextArrival++
			arrived = true
		}

		if cfg.Recompute == 0 {
			if departed || arrived {
				recompute()
			}
		} else if isTick || now >= nextTick {
			recompute()
			res.Ticks = append(res.Ticks, TickStat{At: now, Flows: len(active)})
			for nextTick <= now {
				nextTick += cfg.Recompute
			}
		}
	}
	return res
}

// RateErrorFiltered compares a periodic run against the ideal run over the
// same arrivals and returns the per-flow normalised absolute rate differences
// |r_ρ - r_0| / r_0 — the Figure 15/16 metric — over the flows whose ideal
// lifetime is at least minLife (0 keeps every flow). The batch
// recomputation design deliberately never rate-limits flows shorter than one
// interval (§3.3.2: it "naturally filters out very short-lived flows, which
// would be pointless to rate-limit"), so the Figure 15/16 accuracy metric is
// evaluated over the flows the mechanism actually manages.
func RateErrorFiltered(ideal, periodic *Result, minLife simtime.Time) []float64 {
	if len(ideal.Flows) != len(periodic.Flows) {
		panic("fluid: mismatched runs")
	}
	out := make([]float64, 0, len(ideal.Flows))
	for i := range ideal.Flows {
		r0 := ideal.Flows[i].AvgRateBps
		if r0 <= 0 {
			continue
		}
		if ideal.Flows[i].Ended-ideal.Flows[i].Started < minLife {
			continue
		}
		out = append(out, math.Abs(periodic.Flows[i].AvgRateBps-r0)/r0)
	}
	return out
}
