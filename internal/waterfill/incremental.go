// Incremental water-filling (§3.4, Figure 8): the recomputation loop fires
// every ρ, but between consecutive ticks the traffic matrix usually changes
// by a handful of flow events. Rebuilding the whole allocation from scratch
// on every tick is exactly the cost profile Figure 8 says must be
// engineered down, and weighted max-min has the locality to avoid it: a
// flow's rate only changes when the fill level of one of its bottlenecks
// moves, so a single add/remove/demand-change perturbs the allocation
// outward from the delta's links and dies out at demand-frozen or
// disjoint flows.
//
// Incremental exploits that. It caches the converged fill state — per-flow
// rates, per-link committed load split by priority round — and Apply
// re-solves only the flows reachable from the delta: a restricted
// water-fill over a working set S, expanded to a fixpoint (a flow whose
// rate changed pulls in every round-mate sharing a link with it), then
// cascaded to lower-priority rounds through the links whose residual
// capacity moved. The restricted solve seeds the same fillRound used by the
// from-scratch path with the out-of-set load as pre-frozen background, so
// both paths share one set of numerics; Allocate remains the correctness
// reference and the randomized oracle in incremental_test.go holds the two
// within 1e-6 of each other over tens of thousands of random deltas.
package waterfill

import (
	"fmt"
	"math"

	"r2c2/internal/topology"
)

// Handle identifies a live flow inside an Incremental allocator. Handles
// are dense small integers, reused after Remove.
type Handle int32

// DeltaKind enumerates the flow events the recomputation loop reacts to
// (§3.1: start, finish and demand-update broadcasts; §3.4 route changes
// arrive as an update with a new φ-vector).
type DeltaKind uint8

const (
	// DeltaAdd introduces Delta.Flow; Apply returns its new Handle.
	DeltaAdd DeltaKind = iota
	// DeltaRemove retires Delta.Handle.
	DeltaRemove
	// DeltaUpdate replaces Delta.Handle's spec with Delta.Flow (demand,
	// weight, priority or φ-vector change).
	DeltaUpdate
)

// Delta is one flow event.
type Delta struct {
	Kind   DeltaKind
	Handle Handle // target of Remove / Update
	Flow   Flow   // payload of Add / Update
}

// rateChangeTol is the relative rate change below which a perturbation is
// not propagated further. It sits well above the float noise a re-solve
// introduces for genuinely unchanged flows (~1e-14 relative: the background
// seeds re-sum committed loads in a different order) and well below the
// 1e-6 the differential oracle enforces, so ripples die instead of echoing
// while real changes always travel. Committed state absorbs the exact
// solved value either way; the tolerance only gates propagation.
const rateChangeTol = 1e-12

// incRound is one priority class's committed state.
type incRound struct {
	count int       // live flows in this class
	load  []float64 // per link: committed rate·φ mass of this class
}

// Incremental is a water-filling allocator maintained under a stream of
// flow deltas. It is not safe for concurrent use.
//
// No simulator or emulator path calls it: core.RateComputer runs the
// from-scratch Allocator, whose rates do not depend on the computer's
// history (DESIGN.md §7). It stays only because the bench/ ladder's
// waterfill.incremental_us rung times it and bench/ is frozen with the
// repository benchmark; ROADMAP item 1 (c) is the change that deletes it.
type Incremental struct {
	cfg    Config
	capEff float64

	flows []Flow
	alive []bool
	rates []float64
	free  []Handle
	live  int

	rounds map[uint8]*incRound
	prios  []uint8  // live priorities, descending
	spare  *incRound // last emptied round, reused by roundOf (class churn is common)

	linkFlows [][]Handle // per link: live flows crossing it, all classes

	eng *Allocator // fill engine shared with the from-scratch path

	// Apply scratch, reused across calls.
	dirty     []topology.LinkID // links whose ≥current-round load changed
	inDirty   []bool
	sTouched  []topology.LinkID // links of the current working set
	inTouched []bool
	sFlows    []int // working set S, as indices into flows
	inS       []bool
	newRates  []float64 // restricted-solve output, indexed like flows

	// Solves counts restricted fillRound invocations and Expansions counts
	// fixpoint iterations beyond the first — the observability hooks the
	// Figure 8 harness reports against from-scratch cost.
	Solves     uint64
	Expansions uint64
}

// NewIncremental returns an empty incremental allocator. The configuration
// rules are those of NewAllocator.
func NewIncremental(cfg Config) *Incremental {
	return &Incremental{
		cfg:       cfg,
		capEff:    cfg.Capacity * (1 - cfg.Headroom),
		rounds:    make(map[uint8]*incRound),
		linkFlows: make([][]Handle, cfg.NumLinks),
		eng:       NewAllocator(cfg),
		inDirty:   make([]bool, cfg.NumLinks),
		inTouched: make([]bool, cfg.NumLinks),
	}
}

// Config returns the allocator's configuration.
func (inc *Incremental) Config() Config { return inc.cfg }

// Len returns the number of live flows.
func (inc *Incremental) Len() int { return inc.live }

// Rate returns the committed rate of a live flow.
func (inc *Incremental) Rate(h Handle) float64 {
	inc.check(h)
	return inc.rates[h]
}

// FlowSpec returns the committed spec of a live flow.
func (inc *Incremental) FlowSpec(h Handle) Flow {
	inc.check(h)
	return inc.flows[h]
}

// Add is Apply(DeltaAdd).
func (inc *Incremental) Add(f Flow) Handle { return inc.Apply(Delta{Kind: DeltaAdd, Flow: f}) }

// Remove is Apply(DeltaRemove).
func (inc *Incremental) Remove(h Handle) { inc.Apply(Delta{Kind: DeltaRemove, Handle: h}) }

// Update is Apply(DeltaUpdate).
func (inc *Incremental) Update(h Handle, f Flow) {
	inc.Apply(Delta{Kind: DeltaUpdate, Handle: h, Flow: f})
}

// Apply folds one flow event into the allocation, re-solving only the
// rounds and links reachable from the delta, and returns the handle the
// event concerns (the fresh handle for DeltaAdd).
func (inc *Incremental) Apply(d Delta) Handle {
	h := d.Handle
	var top uint8 // highest priority whose round the delta touches
	switch d.Kind {
	case DeltaAdd:
		validateFlow(len(inc.flows), &d.Flow)
		h = inc.register(d.Flow)
		inc.markDirty(d.Flow.Phi.Links)
		top = d.Flow.Priority
	case DeltaRemove:
		inc.check(h)
		top = inc.flows[h].Priority
		inc.uncommit(h)
		inc.unregister(h)
		inc.free = append(inc.free, h) // Update revives handles; only Remove frees them
		h = -1                         // no forced member: the flow is gone
	case DeltaUpdate:
		inc.check(h)
		validateFlow(int(h), &d.Flow)
		old := inc.flows[h]
		top = old.Priority
		if d.Flow.Priority > top {
			top = d.Flow.Priority
		}
		inc.uncommit(h)
		inc.unregister(h)
		inc.reregister(h, d.Flow)
		inc.markDirty(d.Flow.Phi.Links)
	default:
		panic(fmt.Sprintf("waterfill: unknown delta kind %d", d.Kind))
	}

	// Sweep the priority rounds from the delta's class downward. Classes
	// above `top` cannot observe the delta (strict priority); each class
	// below re-solves only if a dirty link reaches it.
	ret := h
	for _, p := range inc.prios {
		if p > top {
			continue
		}
		force := -1
		if h >= 0 && inc.alive[h] && inc.flows[h].Priority == p {
			force = int(h)
		}
		inc.solveRound(p, force)
	}
	inc.clearDirty()
	if d.Kind == DeltaRemove {
		return d.Handle
	}
	return ret
}

// Rebuild discards all state and bulk-loads the given flows with one
// from-scratch fill — the path taken at startup and whenever a view diff is
// so large that replaying it as deltas would cost more than starting over.
// The returned handles parallel the input order.
func (inc *Incremental) Rebuild(flows []Flow) []Handle {
	inc.flows = append(inc.flows[:0], flows...)
	inc.rates = ensureLen(inc.rates, len(flows))
	inc.newRates = ensureLen(inc.newRates, len(flows))
	inc.alive = inc.alive[:0]
	inc.inS = inc.inS[:0]
	for range flows {
		inc.alive = append(inc.alive, true)
		inc.inS = append(inc.inS, false)
	}
	inc.free = inc.free[:0]
	inc.live = len(flows)
	for i := range inc.linkFlows {
		inc.linkFlows[i] = inc.linkFlows[i][:0]
	}
	for p := range inc.rounds {
		delete(inc.rounds, p)
	}
	inc.prios = inc.prios[:0]

	handles := make([]Handle, len(flows))
	for i := range flows {
		h := Handle(i)
		handles[i] = h
		f := &inc.flows[i]
		for _, lid := range f.Phi.Links {
			inc.linkFlows[lid] = append(inc.linkFlows[lid], h)
		}
		inc.roundOf(f.Priority).count++
	}

	rates := inc.eng.Allocate(inc.flows)
	copy(inc.rates, rates)
	for i := range inc.flows {
		f := &inc.flows[i]
		r := inc.roundOf(f.Priority)
		for j, lid := range f.Phi.Links {
			r.load[lid] += rates[i] * f.Phi.Frac[j]
		}
	}
	// Allocate left its own frozenSum at the final fill; the restricted
	// solver assumes a zeroed engine outside the links it seeds itself.
	for i := range inc.eng.frozenSum {
		inc.eng.frozenSum[i] = 0
	}
	return handles
}

// solveRound re-solves priority class p around the current dirty links: a
// restricted water-fill over the reachable working set, expanded until no
// re-solved rate moves, then committed (which marks the next round's dirty
// links).
func (inc *Incremental) solveRound(p uint8, force int) {
	round := inc.rounds[p]
	if round == nil || round.count == 0 {
		return
	}
	inc.sFlows = inc.sFlows[:0]
	if force >= 0 {
		inc.inS[force] = true
		inc.sFlows = append(inc.sFlows, force)
	}
	for _, lid := range inc.dirty {
		for _, h := range inc.linkFlows[lid] {
			if inc.flows[h].Priority == p && !inc.inS[h] {
				inc.inS[h] = true
				inc.sFlows = append(inc.sFlows, int(h))
			}
		}
	}
	if len(inc.sFlows) == 0 {
		return
	}

	for {
		inc.resetTouched()
		inc.restrictedFill(p)
		inc.Solves++
		// Two fixpoint-expansion passes over the flows just solved. Pass one:
		// a changed rate perturbs every link the flow crosses, so its
		// round-mates there must re-solve too. Pass two: the certificate
		// check — an unchanged rate is NOT sufficient, because the restricted
		// solve can silently cap a flow at its old contribution on a link it
		// should claw capacity back from (see certExpand).
		nSolved := len(inc.sFlows)
		grew := inc.expandChanged(p, nSolved)
		if inc.certExpand(p, nSolved) {
			grew = true
		}
		if !grew {
			break
		}
		inc.Expansions++
		// Quadratic-blowup guard: once most of the class is in play, pull in
		// the stragglers and finish with a single whole-class solve (which is
		// exact by construction — no background from class p remains).
		if len(inc.sFlows)*4 >= round.count*3 {
			for h, f := range inc.flows {
				if inc.alive[h] && f.Priority == p && !inc.inS[h] {
					inc.inS[h] = true
					inc.sFlows = append(inc.sFlows, h)
				}
			}
			inc.resetTouched()
			inc.restrictedFill(p)
			inc.Solves++
			break
		}
	}
	inc.resetTouched()

	// Commit: absorb the solved rates exactly, adjust this class's link
	// loads, and mark moved links dirty for the classes below.
	for _, fi := range inc.sFlows {
		old, now := inc.rates[fi], inc.newRates[fi]
		inc.inS[fi] = false
		if old == now {
			continue
		}
		f := &inc.flows[fi]
		for j, lid := range f.Phi.Links {
			round.load[lid] += (now - old) * f.Phi.Frac[j]
		}
		if rateChanged(old, now) {
			inc.markDirty(f.Phi.Links)
		}
		inc.rates[fi] = now
	}
	inc.sFlows = inc.sFlows[:0]
}

// restrictedFill water-fills the working set against the committed rest of
// the world: every link the set touches is seeded with the load of higher
// classes plus class p's own load minus the set's committed contribution,
// and the shared fillRound does the rest. newRates receives the solved
// rates at the set's indices.
//
// On return eng.frozenSum holds, for every link in sTouched, the total
// ≥class-p load under the candidate solution (background plus the set's
// re-solved contributions) — certExpand reads it to test link saturation.
// The caller must resetTouched before the next fill or before returning.
func (inc *Incremental) restrictedFill(p uint8) {
	inc.sTouched = inc.sTouched[:0]
	for _, fi := range inc.sFlows {
		for _, lid := range inc.flows[fi].Phi.Links {
			if !inc.inTouched[lid] {
				inc.inTouched[lid] = true
				inc.sTouched = append(inc.sTouched, lid)
			}
		}
	}
	for _, lid := range inc.sTouched {
		bg := 0.0
		for _, q := range inc.prios {
			if q < p {
				break // prios is descending
			}
			bg += inc.rounds[q].load[lid]
		}
		inc.eng.frozenSum[lid] = bg
	}
	for _, fi := range inc.sFlows {
		f := &inc.flows[fi]
		if r := inc.rates[fi]; r != 0 {
			for j, lid := range f.Phi.Links {
				inc.eng.frozenSum[lid] -= r * f.Phi.Frac[j]
			}
		}
	}
	inc.eng.fillRound(inc.flows, inc.sFlows, inc.capEff, inc.newRates)
}

// resetTouched clears the engine seeding left behind by restrictedFill.
func (inc *Incremental) resetTouched() {
	for _, lid := range inc.sTouched {
		inc.eng.frozenSum[lid] = 0
		inc.inTouched[lid] = false
	}
	inc.sTouched = inc.sTouched[:0]
}

// expandChanged pulls into S the class-p round-mates on every link crossed
// by a flow whose re-solved rate moved. Only the first nSolved entries of
// sFlows have valid newRates. Reports whether S grew.
func (inc *Incremental) expandChanged(p uint8, nSolved int) bool {
	grew := false
	for _, fi := range inc.sFlows[:nSolved] {
		if !rateChanged(inc.rates[fi], inc.newRates[fi]) {
			continue
		}
		f := &inc.flows[fi]
		for _, lid := range f.Phi.Links {
			for _, h := range inc.linkFlows[lid] {
				if inc.flows[h].Priority == p && !inc.inS[h] {
					inc.inS[h] = true
					inc.sFlows = append(inc.sFlows, int(h))
					grew = true
				}
			}
		}
	}
	return grew
}

// certExpand verifies the weighted max-min optimality certificate for every
// re-solved flow: a flow not frozen at its demand must cross a saturated
// link on which no round-mate holds a strictly higher fill level
// (rate/weight) — otherwise the flow could claim some of that mate's share.
// The restricted solve cannot detect this on its own: out-of-set mates are
// frozen background, so a flow whose bottleneck elsewhere relaxed refills a
// saturated shared link only up to its own old contribution, its rate comes
// back unchanged, and the changed-rate expansion never fires. When the
// certificate fails, the higher-level out-of-set mates on the flow's
// saturated links join S so the next iteration redistributes jointly.
// Reports whether S grew.
func (inc *Incremental) certExpand(p uint8, nSolved int) bool {
	satTol := 1e-9 * inc.capEff
	grew := false
	for _, fi := range inc.sFlows[:nSolved] {
		f := &inc.flows[fi]
		if len(f.Phi.Links) == 0 {
			continue // host-local: contends with nobody
		}
		r := inc.newRates[fi]
		if f.Demand != Unlimited && r >= f.Demand {
			continue // demand-frozen (covers Demand <= 0, where r == 0)
		}
		lvl := r / f.Weight
		certified := false
		for _, lid := range f.Phi.Links {
			if inc.capEff-inc.eng.frozenSum[lid] > satTol {
				continue // unsaturated: cannot be the bottleneck
			}
			ok := true
			for _, g := range inc.linkFlows[lid] {
				gf := &inc.flows[g]
				if gf.Priority != p || int(g) == fi {
					continue
				}
				// A saturated link certifies fi only if fi's level tops every
				// mate's — in-set mates at their candidate rates (a saturated
				// link full of higher-level set mates is *their* bottleneck,
				// not fi's), out-of-set mates at their committed rates.
				gr := inc.rates[g]
				if inc.inS[g] {
					gr = inc.newRates[g]
				}
				if levelExceeds(gr/gf.Weight, lvl) {
					ok = false
					break
				}
			}
			if ok {
				certified = true
				break
			}
		}
		if certified {
			continue
		}
		pulled := false
		for _, lid := range f.Phi.Links {
			if inc.capEff-inc.eng.frozenSum[lid] > satTol {
				continue
			}
			if inc.pullHigher(p, lid, lvl) {
				pulled = true
			}
		}
		if !pulled {
			// Backstop-frozen flow with no saturated link at all: pull any
			// higher-level mate it shares a link with.
			for _, lid := range f.Phi.Links {
				if inc.pullHigher(p, lid, lvl) {
					pulled = true
				}
			}
		}
		if pulled {
			grew = true
		}
	}
	return grew
}

// pullHigher adds to S the out-of-set class-p flows on lid whose committed
// fill level exceeds lvl. Reports whether any joined.
func (inc *Incremental) pullHigher(p uint8, lid topology.LinkID, lvl float64) bool {
	grew := false
	for _, g := range inc.linkFlows[lid] {
		gf := &inc.flows[g]
		if gf.Priority != p || inc.inS[g] {
			continue
		}
		if !levelExceeds(inc.rates[g]/gf.Weight, lvl) {
			continue
		}
		inc.inS[g] = true
		inc.sFlows = append(inc.sFlows, int(g))
		grew = true
	}
	return grew
}

// levelExceeds reports whether fill level a sits meaningfully above b.
func levelExceeds(a, b float64) bool {
	return a-b > 1e-9*math.Max(a, b)
}

// register allocates a handle for a new flow and indexes it.
func (inc *Incremental) register(f Flow) Handle {
	var h Handle
	if n := len(inc.free); n > 0 {
		h = inc.free[n-1]
		inc.free = inc.free[:n-1]
		inc.flows[h] = f
		inc.alive[h] = true
		inc.rates[h] = 0
	} else {
		h = Handle(len(inc.flows))
		inc.flows = append(inc.flows, f)
		inc.alive = append(inc.alive, true)
		inc.rates = append(inc.rates, 0)
		inc.newRates = append(inc.newRates, 0)
		inc.inS = append(inc.inS, false)
	}
	inc.live++
	for _, lid := range f.Phi.Links {
		inc.linkFlows[lid] = append(inc.linkFlows[lid], h)
	}
	inc.roundOf(f.Priority).count++
	return h
}

// reregister re-indexes an existing handle under a replacement spec.
func (inc *Incremental) reregister(h Handle, f Flow) {
	inc.flows[h] = f
	inc.alive[h] = true
	inc.live++
	for _, lid := range f.Phi.Links {
		inc.linkFlows[lid] = append(inc.linkFlows[lid], h)
	}
	inc.roundOf(f.Priority).count++
}

// unregister drops a handle from every index. The caller must have
// uncommitted its rate first.
func (inc *Incremental) unregister(h Handle) {
	f := &inc.flows[h]
	for _, lid := range f.Phi.Links {
		fl := inc.linkFlows[lid]
		for i, o := range fl {
			if o == h {
				fl[i] = fl[len(fl)-1]
				inc.linkFlows[lid] = fl[:len(fl)-1]
				break
			}
		}
	}
	r := inc.rounds[f.Priority]
	r.count--
	if r.count == 0 {
		// The last member's contribution was subtracted term by term, which
		// can strand float dust; an empty class carries exactly zero load.
		for i := range r.load {
			r.load[i] = 0
		}
		delete(inc.rounds, f.Priority)
		inc.spare = r
		for i, p := range inc.prios {
			if p == f.Priority {
				inc.prios = append(inc.prios[:i], inc.prios[i+1:]...)
				break
			}
		}
	}
	inc.alive[h] = false
	inc.live--
}

// uncommit subtracts a flow's committed rate from its class's link loads
// and marks those links dirty.
func (inc *Incremental) uncommit(h Handle) {
	f := &inc.flows[h]
	r := inc.rounds[f.Priority]
	if rate := inc.rates[h]; rate != 0 {
		for j, lid := range f.Phi.Links {
			r.load[lid] -= rate * f.Phi.Frac[j]
		}
	}
	inc.markDirty(f.Phi.Links)
	inc.rates[h] = 0
}

// roundOf returns (creating if needed) the state of one priority class.
// Emptied rounds are recycled through `spare`: a class draining and refilling
// (e.g. the last default-priority flow finishing before the next arrives)
// would otherwise reallocate the per-link load vector every cycle.
func (inc *Incremental) roundOf(p uint8) *incRound {
	r := inc.rounds[p]
	if r == nil {
		if inc.spare != nil {
			r, inc.spare = inc.spare, nil // load already zeroed by unregister
		} else {
			r = &incRound{load: make([]float64, inc.cfg.NumLinks)}
		}
		inc.rounds[p] = r
		// Insert p keeping prios descending (classes are few; a bubble pass
		// beats sort.Slice's closure allocation).
		inc.prios = append(inc.prios, p)
		for i := len(inc.prios) - 1; i > 0 && inc.prios[i] > inc.prios[i-1]; i-- {
			inc.prios[i], inc.prios[i-1] = inc.prios[i-1], inc.prios[i]
		}
	}
	return r
}

func (inc *Incremental) markDirty(links []topology.LinkID) {
	for _, lid := range links {
		if !inc.inDirty[lid] {
			inc.inDirty[lid] = true
			inc.dirty = append(inc.dirty, lid)
		}
	}
}

func (inc *Incremental) clearDirty() {
	for _, lid := range inc.dirty {
		inc.inDirty[lid] = false
	}
	inc.dirty = inc.dirty[:0]
}

func (inc *Incremental) check(h Handle) {
	if h < 0 || int(h) >= len(inc.flows) || !inc.alive[h] {
		panic(fmt.Sprintf("waterfill: dead or unknown handle %d", h))
	}
}

// rateChanged reports whether a re-solved rate moved beyond float noise.
func rateChanged(old, now float64) bool {
	if old == now {
		return false
	}
	return math.Abs(now-old) > rateChangeTol*math.Max(math.Abs(old), math.Abs(now))
}

func ensureLen(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
