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
// A round indexes its flows by link once, in O(Σ|φ|); each of its I ≤ N
// freeze levels then costs one pass over the L live links' cached levels and
// the D demand-limited flows, plus the φ-entries of the flows it freezes.
// That is O(Σ|φ| + I·(L+D)), within the paper's O(NL + N²) bound.
package waterfill

import (
	"fmt"
	"math"
	"slices"

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

	// Flat scratch (maps here dominated recomputation cost; the Figure 8
	// budget demands microsecond allocations). A round numbers the links it
	// touches, and everything else it keeps per link is by that number, so
	// an Allocator holds only tpos beside the two sums for every link.
	tpos    []int32           // per link: 1 + its number in the round, or 0
	touched []topology.LinkID // the round's links, by number

	// Per round of fillRound, by link number: flowsOf[idxLo[p]:idxHi[p]]
	// are the positions in the round of the active flows crossing link p,
	// ascending; livePos[p] is its slot in liveP, or -1.
	idxLo, idxHi []int32
	livePos      []int32
	dirty        []bool // queued in dirtyL
	flowsOf      []int32

	active  []bool        // per flow in the current round
	liveP   []int32       // live links: weight above eps, unsaturated
	liveLvl []float64     // liveP[i]'s saturation level
	dirtyL  []int32       // live links whose load changed this level
	dlim    []demandLevel // active demand-limited flows
	cand    []int32       // links that may saturate at the current level
	freeze  []int32       // positions freezing at the current level
}

// demandLevel is an active demand-limited flow of a round, by its position,
// and the fill level at which it reaches its demand.
type demandLevel struct {
	k     int32
	level float64
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
		tpos:      make([]int32, cfg.NumLinks),
	}
}

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

	// Order flows by descending priority, stably (a counting sort over the
	// priorities present: it allocates nothing); equal priorities share a
	// round.
	var start [256]int32
	lo, hi := 255, 0
	for i := range flows {
		p := int(flows[i].Priority)
		start[p]++
		lo, hi = min(lo, p), max(hi, p)
	}
	for p, off := hi, int32(0); p >= lo; p-- {
		start[p], off = off, off+start[p]
	}
	a.order = slices.Grow(a.order[:0], len(flows))[:len(flows)]
	for i := range flows {
		p := flows[i].Priority
		a.order[start[p]] = i
		start[p]++
	}

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
//
// A freeze level costs only what it changes. Each live link — touched, with
// active weight above eps, not yet saturated — caches its saturation level
// in liveLvl, so the next level is one pass over that array, which also
// keeps the few links near enough the minimum to saturate. A link→flow
// index built once per round hands each saturating link exactly the flows
// that cross it, and only the links of flows that froze get their level
// recomputed. Every minimum, comparison and activeW/frozenSum update is the
// same floating-point operation, applied in the same order (freezes in
// ascending position of idx), as a rescan of every link and flow per level
// would make, so the rates are bit-identical to it (twopass_test.go holds
// the rescan).
func (a *Allocator) fillRound(flows []Flow, idx []int, cap float64, rates []float64) {
	const eps = 1e-12

	if n := len(idx); n > len(a.active) {
		a.active = make([]bool, n)
	}
	active := a.active[:len(idx)]
	a.touched, a.idxHi, a.dlim = a.touched[:0], a.idxHi[:0], a.dlim[:0]
	nActive, nIndex := 0, int32(0)
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
		if f.Demand != Unlimited {
			a.dlim = append(a.dlim, demandLevel{k: int32(k), level: f.Demand / f.Weight})
		}
		// float64(x*y) rounds each product before it is summed, so arm64
		// cannot fuse the two into one multiply-add and fill to other bits
		// than amd64 (TestNoFusedMultiplyAdd); the same holds at every
		// per-link sum in this package.
		for j, lid := range f.Phi.Links {
			a.activeW[lid] += float64(f.Weight * f.Phi.Frac[j])
			p := a.tpos[lid]
			if p == 0 {
				a.touched = append(a.touched, lid)
				a.idxHi = append(a.idxHi, 0)
				p = int32(len(a.touched))
				a.tpos[lid] = p
			}
			a.idxHi[p-1]++ // counts the link's flows until the index is laid out
			nIndex++
		}
	}

	// The link→flow index, then the live links and their levels.
	n := len(a.touched)
	a.idxLo = slices.Grow(a.idxLo[:0], n)[:n]
	a.livePos = slices.Grow(a.livePos[:0], n)[:n]
	a.dirty = slices.Grow(a.dirty[:0], n)[:n]
	clear(a.dirty)
	a.flowsOf = slices.Grow(a.flowsOf[:0], int(nIndex))[:nIndex]
	off := int32(0)
	for p := range a.touched {
		a.idxLo[p], a.idxHi[p], off = off, off, off+a.idxHi[p]
	}
	for k, fi := range idx {
		if !active[k] {
			continue
		}
		for _, lid := range flows[fi].Phi.Links {
			p := a.tpos[lid] - 1
			a.flowsOf[a.idxHi[p]] = int32(k)
			a.idxHi[p]++
		}
	}
	a.liveP, a.liveLvl = a.liveP[:0], a.liveLvl[:0]
	for p, l := range a.touched {
		a.livePos[p] = -1
		if a.activeW[l] > eps {
			a.livePos[p] = int32(len(a.liveP))
			a.liveP = append(a.liveP, int32(p))
			a.liveLvl = append(a.liveLvl, linkLevel(cap, a.frozenSum[l], a.activeW[l]))
		}
	}

	t := 0.0 // the fill level: rate per unit weight
	for nActive > 0 {
		// Next saturation level across live links and demand-limited flows.
		// The scan also keeps every link within the level's margin of the
		// running minimum: a superset of the links that saturate.
		tNext, bound := math.MaxFloat64, math.Inf(1)
		a.cand = a.cand[:0]
		for i, s := range a.liveLvl {
			if s < tNext {
				tNext, bound = s, s*(1+1e-9)
			}
			if s <= bound {
				a.cand = append(a.cand, a.liveP[i])
			}
		}
		for _, d := range a.dlim {
			if d.level < tNext {
				tNext = d.level
			}
		}
		if tNext == math.MaxFloat64 {
			// No constraint binds: every remaining flow only crosses links
			// with no active weight left (fully saturated). Freeze at t.
			tNext = t
		}
		t = tNext
		level := t * (1 + 1e-9)

		// Links saturating at this level leave the live set, and every active
		// flow crossing one freezes, as does every demand-limited flow whose
		// demand the level reaches.
		a.freeze = a.freeze[:0]
		for _, p := range a.cand {
			if a.liveLvl[a.livePos[p]] > level {
				continue
			}
			a.dropLive(p)
			for _, k := range a.flowsOf[a.idxLo[p]:a.idxHi[p]] {
				if active[k] {
					active[k] = false
					a.freeze = append(a.freeze, k)
				}
			}
		}
		n = 0
		for _, d := range a.dlim {
			if !active[d.k] {
				continue
			}
			if d.level <= level {
				active[d.k] = false
				a.freeze = append(a.freeze, d.k)
				continue
			}
			a.dlim[n] = d
			n++
		}
		a.dlim = a.dlim[:n]
		if len(a.freeze) == 0 {
			// Remaining flows cross only links whose active weight dropped
			// to ~0 without saturating (all companions demand-froze). As a
			// hard backstop against pathological rounding, freeze everything
			// at t: the level did not advance.
			for k := range active {
				if active[k] {
					active[k] = false
					a.freeze = append(a.freeze, int32(k))
				}
			}
		}

		// Freeze at weight·t, capped at demand, in ascending position; unless
		// this was the last level, the links of every frozen flow need their
		// level recomputed.
		slices.Sort(a.freeze)
		nActive -= len(a.freeze)
		for _, k := range a.freeze {
			fi := idx[k]
			f := &flows[fi]
			r := f.Weight * t
			if f.Demand != Unlimited && f.Demand < r {
				r = f.Demand
			}
			rates[fi] = r
			for j, lid := range f.Phi.Links {
				a.activeW[lid] -= float64(f.Weight * f.Phi.Frac[j])
				a.frozenSum[lid] += float64(r * f.Phi.Frac[j])
				if p := a.tpos[lid] - 1; nActive > 0 && a.livePos[p] >= 0 && !a.dirty[p] {
					a.dirty[p] = true
					a.dirtyL = append(a.dirtyL, p)
				}
			}
		}
		for _, p := range a.dirtyL {
			a.dirty[p] = false
			if l := a.touched[p]; a.activeW[l] > eps {
				a.liveLvl[a.livePos[p]] = linkLevel(cap, a.frozenSum[l], a.activeW[l])
			} else {
				// Its flows all froze elsewhere: it imposes no further
				// constraint, and active weight never grows back.
				a.dropLive(p)
			}
		}
		a.dirtyL = a.dirtyL[:0]
	}

	// Reset the per-link scratch this round touched (activeW is ~0 once all
	// flows froze; clear exactly to avoid drift across rounds and calls).
	for _, lid := range a.touched {
		a.activeW[lid] = 0
		a.tpos[lid] = 0
	}
}

// dropLive takes link p out of the live set, moving the last live link into
// its slot.
func (a *Allocator) dropLive(p int32) {
	i, last := a.livePos[p], len(a.liveP)-1
	m := a.liveP[last]
	a.liveP[i], a.liveLvl[i], a.livePos[m] = m, a.liveLvl[last], i
	a.liveP, a.liveLvl, a.livePos[p] = a.liveP[:last], a.liveLvl[:last], -1
}

// linkLevel is the fill level at which a link with the given frozen load
// and active weight saturates.
func linkLevel(cap, frozen, w float64) float64 {
	resid := cap - frozen
	if resid < 0 {
		resid = 0
	}
	return resid / w
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
