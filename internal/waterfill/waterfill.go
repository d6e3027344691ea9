// Package waterfill implements R2C2's rate-computation algorithm (§3.3.1):
// a weighted water-filling that computes max-min fair rates for flows whose
// per-link rate split is fixed by their routing protocol (the φ-vectors of
// package routing).
//
// The algorithm raises every active flow's rate in proportion to its weight
// until a link saturates; flows crossing the bottleneck freeze, and the
// filling continues until every flow is frozen. Host-limited flows freeze
// early at their demand (§3.3.2), priorities are served in strictly
// descending rounds, and a configurable headroom fraction is subtracted
// from every link's capacity to absorb flows whose start has not yet been
// seen by all nodes (§3.3.2, "New flows").
//
// Complexity is O(I·(L+N)) with I ≤ N freeze iterations, matching the
// paper's O(NL + N²) bound.
package waterfill

import (
	"fmt"
	"math"
	"sort"

	"r2c2/internal/routing"
	"r2c2/internal/topology"
)

// Unlimited marks a flow with no demand cap (network-limited).
const Unlimited = math.MaxFloat64

// Flow describes one allocation request.
type Flow struct {
	// Phi is the per-link rate-fraction vector dictated by the flow's
	// routing protocol. Flows with an empty Phi are host-local and receive
	// their demand directly.
	Phi routing.Phi
	// Weight is the allocation weight (> 0). Per-flow fairness uses equal
	// weights; tenant- or deadline-based policies map onto weights (§3.3.2).
	Weight float64
	// Priority orders allocation rounds: higher priorities are allocated
	// first and lower priorities share what remains.
	Priority uint8
	// Demand caps the rate for host-limited flows, in the same units as
	// link capacity. Use Unlimited for network-limited flows.
	Demand float64
}

// Config parameterises an allocation.
type Config struct {
	NumLinks int     // number of directed links in the fabric
	Capacity float64 // per-link capacity (uniform inside a rack, §3.2)
	Headroom float64 // fraction of capacity left unallocated, in [0, 1)
}

// Allocator computes rate allocations. It retains scratch buffers between
// calls, so reusing one Allocator avoids per-round allocation churn — the
// recomputation loop calls this every ρ (§3.3.2). An Allocator is not safe
// for concurrent use.
type Allocator struct {
	cfg Config

	frozenSum []float64 // per link: capacity consumed by frozen flows
	activeW   []float64 // per link: Σ weight·φ of active flows
	order     []int     // flow indices sorted by descending priority

	// Flat per-link scratch (maps here dominated recomputation cost; the
	// Figure 8 budget demands microsecond allocations).
	touched   []topology.LinkID // links touched by the current round
	inTouched []bool
	saturated []bool
	active    []bool // per flow in the current round
}

// NewAllocator returns an allocator for a fabric with the given config. It
// panics on invalid configuration so that misconfiguration fails loudly at
// startup rather than corrupting allocations.
func NewAllocator(cfg Config) *Allocator {
	if cfg.NumLinks < 0 || cfg.Capacity <= 0 || cfg.Headroom < 0 || cfg.Headroom >= 1 {
		panic(fmt.Sprintf("waterfill: invalid config %+v", cfg))
	}
	return &Allocator{
		cfg:       cfg,
		frozenSum: make([]float64, cfg.NumLinks),
		activeW:   make([]float64, cfg.NumLinks),
		inTouched: make([]bool, cfg.NumLinks),
		saturated: make([]bool, cfg.NumLinks),
	}
}

// Config returns the allocator's configuration.
func (a *Allocator) Config() Config { return a.cfg }

// validateFlow panics on inputs that would poison the fill: a non-positive
// or non-finite weight never freezes (NaN compares false against every
// threshold, so `NaN <= 0` sails through a naive check), and a NaN or ±Inf
// demand corrupts every level comparison it participates in. Unlimited
// (math.MaxFloat64) is the only sentinel for "no demand cap"; negative
// finite demands are tolerated and allocate rate 0, matching Demand == 0.
func validateFlow(i int, f *Flow) {
	if math.IsNaN(f.Weight) || math.IsInf(f.Weight, 0) || f.Weight <= 0 {
		panic(fmt.Sprintf("waterfill: flow %d has invalid weight %v (want finite > 0)", i, f.Weight))
	}
	if math.IsNaN(f.Demand) || math.IsInf(f.Demand, 0) {
		panic(fmt.Sprintf("waterfill: flow %d has invalid demand %v (use Unlimited for no cap)", i, f.Demand))
	}
}

// Allocate computes the rate for every flow; the returned slice is freshly
// allocated and owned by the caller. Flows with invalid weight or demand
// (non-positive, NaN or ±Inf weight; NaN or ±Inf demand) panic: they would
// never freeze, or poison the fill, and signal a caller bug.
func (a *Allocator) Allocate(flows []Flow) []float64 {
	for i := range flows {
		validateFlow(i, &flows[i])
	}
	rates := make([]float64, len(flows))
	cap := a.cfg.Capacity * (1 - a.cfg.Headroom)

	for i := range a.frozenSum {
		a.frozenSum[i] = 0
	}

	// Order flows by descending priority; equal priorities share a round.
	a.order = a.order[:0]
	for i := range flows {
		a.order = append(a.order, i)
	}
	sort.SliceStable(a.order, func(x, y int) bool {
		return flows[a.order[x]].Priority > flows[a.order[y]].Priority
	})

	for lo := 0; lo < len(a.order); {
		hi := lo
		prio := flows[a.order[lo]].Priority
		for hi < len(a.order) && flows[a.order[hi]].Priority == prio {
			hi++
		}
		a.fillRound(flows, a.order[lo:hi], cap, rates)
		lo = hi
	}
	return rates
}

// hostLocalRate is the allocation for a flow with an empty φ-vector:
// min(demand, raw link capacity). Shared by the from-scratch and
// incremental paths so both agree exactly.
func hostLocalRate(cfg *Config, f *Flow) float64 {
	if f.Demand < 0 {
		return 0
	}
	if f.Demand < cfg.Capacity {
		return f.Demand
	}
	return cfg.Capacity
}

// fillRound water-fills one priority class against the residual capacity
// left by higher classes, updating frozenSum with this class's consumption.
func (a *Allocator) fillRound(flows []Flow, idx []int, cap float64, rates []float64) {
	const eps = 1e-12

	if n := len(idx); n > len(a.active) {
		a.active = make([]bool, n)
	}
	active := a.active[:len(idx)]
	a.touched = a.touched[:0]
	nActive := 0
	for k, fi := range idx {
		f := &flows[fi]
		active[k] = false
		if len(f.Phi.Links) == 0 {
			// Host-local flow: it crosses no fabric link, so it contends with
			// nobody and its rate is min(demand, link capacity) — the NIC
			// loopback runs at line rate, and the headroom only protects
			// fabric links, so the full capacity applies. Unlimited demand
			// therefore means line rate, not zero (an Unlimited host-local
			// flow used to silently allocate 0).
			rates[fi] = hostLocalRate(&a.cfg, f)
			continue
		}
		if f.Demand <= 0 {
			rates[fi] = 0
			continue
		}
		active[k] = true
		nActive++
		for j, lid := range f.Phi.Links {
			a.activeW[lid] += f.Weight * f.Phi.Frac[j]
			if !a.inTouched[lid] {
				a.inTouched[lid] = true
				a.touched = append(a.touched, lid)
			}
		}
	}

	t := 0.0 // the fill level: rate per unit weight
	for nActive > 0 {
		// Next saturation level across touched links, recording the links
		// that achieve it so freezing is exact rather than epsilon-matched.
		tNext := math.MaxFloat64
		for _, l := range a.touched {
			w := a.activeW[l]
			if w <= eps || a.saturated[l] {
				continue
			}
			resid := cap - a.frozenSum[l]
			if resid < 0 {
				resid = 0
			}
			if s := resid / w; s < tNext {
				tNext = s
			}
		}
		// Next demand-freeze level across active flows.
		for k, fi := range idx {
			if !active[k] || flows[fi].Demand == Unlimited {
				continue
			}
			if s := flows[fi].Demand / flows[fi].Weight; s < tNext {
				tNext = s
			}
		}
		if tNext == math.MaxFloat64 {
			// No constraint binds: every remaining flow only crosses links
			// with no active weight left (fully saturated). Freeze at t.
			tNext = t
		}
		t = tNext
		level := t * (1 + 1e-9)

		// Mark links saturating at this level.
		for _, l := range a.touched {
			if a.saturated[l] {
				continue
			}
			w := a.activeW[l]
			if w <= eps {
				// A link all of whose flows froze elsewhere counts as
				// exhausted only if no capacity remains; it imposes no
				// further constraint either way.
				continue
			}
			resid := cap - a.frozenSum[l]
			if resid < 0 {
				resid = 0
			}
			if resid/w <= level {
				a.saturated[l] = true
			}
		}

		// Freeze demand-limited flows at their demand and every active flow
		// crossing a saturated link at weight·t.
		frozeAny := false
		for k, fi := range idx {
			if !active[k] {
				continue
			}
			f := &flows[fi]
			freeze := f.Demand != Unlimited && f.Demand/f.Weight <= level
			if !freeze {
				for _, lid := range f.Phi.Links {
					if a.saturated[lid] {
						freeze = true
						break
					}
				}
			}
			if !freeze {
				continue
			}
			r := f.Weight * t
			if f.Demand != Unlimited && f.Demand < r {
				r = f.Demand
			}
			rates[fi] = r
			active[k] = false
			nActive--
			frozeAny = true
			for j, lid := range f.Phi.Links {
				a.activeW[lid] -= f.Weight * f.Phi.Frac[j]
				a.frozenSum[lid] += r * f.Phi.Frac[j]
			}
		}
		if !frozeAny {
			// Remaining flows cross only links whose active weight dropped
			// to ~0 without saturating (all companions demand-froze); they
			// are unconstrained up the next binding link. Loop continues
			// with those links eligible again, but as a hard backstop
			// against pathological rounding, freeze everything at t if the
			// level did not advance.
			for k, fi := range idx {
				if !active[k] {
					continue
				}
				f := &flows[fi]
				r := f.Weight * t
				if f.Demand != Unlimited && f.Demand < r {
					r = f.Demand
				}
				rates[fi] = r
				active[k] = false
				nActive--
				for j, lid := range f.Phi.Links {
					a.activeW[lid] -= f.Weight * f.Phi.Frac[j]
					a.frozenSum[lid] += r * f.Phi.Frac[j]
				}
			}
		}
	}

	// Reset the per-link scratch this round touched (activeW is ~0 once all
	// flows froze; clear exactly to avoid drift across rounds and calls).
	for _, lid := range a.touched {
		a.activeW[lid] = 0
		a.inTouched[lid] = false
		a.saturated[lid] = false
	}
}

// LinkLoads returns the per-link load implied by the given flows at the
// given rates — used by tests and by the routing selector's fitness
// evaluation to confirm feasibility.
func LinkLoads(numLinks int, flows []Flow, rates []float64) []float64 {
	loads := make([]float64, numLinks)
	for i := range flows {
		for j, lid := range flows[i].Phi.Links {
			loads[lid] += rates[i] * flows[i].Phi.Frac[j]
		}
	}
	return loads
}

// Aggregate returns the total allocated rate, the default global utility
// metric the routing selector maximises (§3.4).
func Aggregate(rates []float64) float64 {
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum
}
