// Package core implements the R2C2 control plane (§3): the per-node view
// of the rack's global traffic matrix maintained from flow-event
// broadcasts, the local rate computation that turns that view into
// max-min fair sending rates, and the demand estimator for host-limited
// flows.
//
// The central idea of the paper is that global visibility — every node
// knows every active flow — turns distributed congestion control into a
// local computation: no probing, no switch support, no per-flow queues on
// path. A Visibility is exactly that visibility; a RateComputer is exactly
// that computation.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/stats"
	"r2c2/internal/topology"
	"r2c2/internal/waterfill"
	"r2c2/internal/wire"
)

// UnlimitedDemand is the broadcast demand field value meaning "network
// limited" (no host-side cap).
const UnlimitedDemand uint32 = 0xFFFFFFFF

// FlowInfo is one entry of a node's traffic-matrix view: everything a
// broadcast announces about a flow (§3.2, Figure 6).
type FlowInfo struct {
	ID         wire.FlowID
	Src, Dst   topology.NodeID
	Weight     uint8
	Priority   uint8
	Protocol   routing.Protocol
	DemandKbps uint32 // UnlimitedDemand if network-limited
}

// DemandBits returns the demand in bits/s, or waterfill.Unlimited.
func (f *FlowInfo) DemandBits() float64 {
	if f.DemandKbps == UnlimitedDemand {
		return waterfill.Unlimited
	}
	return float64(f.DemandKbps) * 1e3
}

// StartBroadcast builds the 16-byte broadcast announcing this flow's start,
// to be routed along the given spanning tree.
func (f *FlowInfo) StartBroadcast(tree uint8) *wire.Broadcast {
	b := f.Broadcast(wire.EventFlowStart, tree)
	return &b
}

// FinishBroadcast builds the broadcast announcing this flow's termination.
func (f *FlowInfo) FinishBroadcast(tree uint8) *wire.Broadcast {
	b := f.Broadcast(wire.EventFlowFinish, tree)
	return &b
}

// Broadcast builds the broadcast announcing event ev of this flow: its
// start, finish, demand change or routing-protocol change (§3.4). It is a
// value, so announcing a flow allocates nothing until a backend keeps it.
func (f *FlowInfo) Broadcast(ev wire.EventKind, tree uint8) wire.Broadcast {
	return wire.Broadcast{
		Event:      ev,
		Src:        uint16(f.Src),
		Dst:        uint16(f.Dst),
		FlowSeq:    f.ID.Seq(),
		Weight:     f.Weight,
		Priority:   f.Priority,
		DemandKbps: f.DemandKbps,
		Tree:       tree,
		RP:         uint8(f.Protocol),
	}
}

// BroadcastInfo returns the flow entry a broadcast announces.
func BroadcastInfo(b *wire.Broadcast) FlowInfo {
	return FlowInfo{ID: b.Flow(), Src: topology.NodeID(b.Src), Dst: topology.NodeID(b.Dst),
		Weight: b.Weight, Priority: b.Priority, DemandKbps: b.DemandKbps, Protocol: routing.Protocol(b.RP)}
}

// table is an open-addressing hash table keyed by flow ID with its values
// inline: a power-of-two number of slots, a flow's home slot the top bits of
// a Fibonacci hash of its ID (both halves of an ID vary slowly), linear
// probing, backward-shift removal (no tombstones), at most ¾ full. An
// operation is one probe, usually one cache line, and a flood reaches every
// node's table: a View keeps its entries in one, a Visibility its open rows.
type table[E any] struct {
	slots []tableSlot[E]
	shift uint8 // 32 - log2(len(slots)): hash bits to discard
	n     int   // occupied slots
}

type tableSlot[E any] struct {
	id   wire.FlowID
	used bool
	val  E
}

const tableMinBits = 3 // log2 of an empty table's size

func newTable[E any]() table[E] {
	return table[E]{slots: make([]tableSlot[E], 1<<tableMinBits), shift: 32 - tableMinBits}
}

func (t *table[E]) home(id wire.FlowID) int { return int(uint32(id) * 0x9E3779B1 >> t.shift) }

// find returns the slot holding id, or the free slot its insertion would
// take. The load bound keeps a slot free, so the probe ends.
func (t *table[E]) find(id wire.FlowID) (slot int, found bool) {
	for i := t.home(id); ; i = (i + 1) & (len(t.slots) - 1) {
		if s := &t.slots[i]; !s.used || s.id == id {
			return i, s.used
		}
	}
}

// get returns id's value.
func (t *table[E]) get(id wire.FlowID) (E, bool) {
	i, ok := t.find(id)
	return t.slots[i].val, ok
}

// put returns id's value, inserting a zero one if id is absent.
func (t *table[E]) put(id wire.FlowID) (val *E, found bool) {
	i, ok := t.find(id)
	if !ok {
		if (t.n+1)*4 > len(t.slots)*3 { // double the table and re-file every entry
			old := t.slots
			t.slots, t.shift = make([]tableSlot[E], 2*len(old)), t.shift-1
			for _, s := range old {
				if s.used {
					j, _ := t.find(s.id)
					t.slots[j] = s
				}
			}
			i, _ = t.find(id)
		}
		t.n++
		t.slots[i] = tableSlot[E]{id: id, used: true}
	}
	return &t.slots[i].val, ok
}

// drop empties slot i and pulls back every later entry of its cluster whose
// home is cyclically no later than the hole, so no probe steps over a gap.
func (t *table[E]) drop(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].id))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[E]{}
	t.n--
}

// View is one node's local picture of the rack's traffic matrix, built
// purely from flow-event broadcasts (§3.1). Views at different nodes can
// temporarily diverge while broadcasts are in flight; the bandwidth
// headroom absorbs that (§3.3.2).
//
// Neither backend keeps a View: both hold their nodes' views in a
// Visibility. A View is the reference the Visibility fuzzers hold them to,
// the bench/ ladder's rung, and a snapshot for tests.
type View struct {
	table[FlowInfo]
	hash uint64
}

// NewView returns an empty view.
func NewView() *View { return &View{table: newTable[FlowInfo]()} }

// Len returns the number of flows in the view.
func (v *View) Len() int { return v.n }

// Hash returns an order-independent digest of the view's contents: two
// views with equal flow sets have equal hashes.
func (v *View) Hash() uint64 { return v.hash }

// Get returns the view's entry for a flow.
func (v *View) Get(id wire.FlowID) (FlowInfo, bool) { return v.get(id) }

// Apply folds one broadcast event into the view. Duplicate starts and
// finishes for unknown flows are tolerated (broadcasts can be retransmitted
// after drops, §3.2 "Failures") and reported as no-ops.
func (v *View) Apply(b *wire.Broadcast) error {
	id := b.Flow()
	switch b.Event {
	case wire.EventFlowStart:
		v.AddFlow(BroadcastInfo(b))
	case wire.EventFlowFinish:
		v.RemoveFlow(id)
	case wire.EventDemandUpdate, wire.EventRouteChange:
		old, ok := v.Get(id)
		if !ok {
			// An update racing a finish; drop it.
			return nil
		}
		if b.Event == wire.EventDemandUpdate {
			old.DemandKbps = b.DemandKbps
		} else {
			old.Protocol = routing.Protocol(b.RP)
		}
		v.AddFlow(old)
	default:
		return fmt.Errorf("core: unknown broadcast event %v", b.Event)
	}
	return nil
}

// AddFlow inserts or replaces a flow's entry: a locally originated flow (the
// sender updates its own view immediately; the broadcast informs everyone
// else), or a start or update applied.
func (v *View) AddFlow(info FlowInfo) {
	val, ok := v.put(info.ID)
	if ok {
		v.hash ^= FlowDigest(*val)
	}
	*val = info
	v.hash ^= FlowDigest(info)
}

// RemoveFlow removes a flow: a locally terminated one, or a finish applied.
func (v *View) RemoveFlow(id wire.FlowID) {
	if i, ok := v.find(id); ok {
		v.hash ^= FlowDigest(v.slots[i].val)
		v.drop(i)
	}
}

// Flows returns the view's entries sorted by flow ID, so every node
// enumerates an identical view in an identical order — a requirement for
// all nodes converging on the same allocation (§3.3).
func (v *View) Flows() []FlowInfo {
	out := make([]FlowInfo, 0, v.n)
	for i := range v.slots {
		if v.slots[i].used {
			out = append(out, v.slots[i].val)
		}
	}
	slices.SortFunc(out, func(a, b FlowInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// FlowDigest digests one flow entry for the order-independent view hash: a
// View's Hash is the XOR of FlowDigest over its entries.
func FlowDigest(f FlowInfo) uint64 {
	h := uint64(f.ID)<<32 | uint64(f.DemandKbps)
	h ^= uint64(f.Weight)<<8 | uint64(f.Priority)<<16 | uint64(f.Protocol)<<24
	// splitmix64 finalizer.
	h += 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// DemandSummary is a mergeable plain-data projection of a View: the flow
// entries sorted by flow ID plus the same order-independent digest a View
// of that flow set would report. Because flow IDs embed their source node,
// summaries of disjoint sources merge by an exact sorted merge.
//
// Both backends' recomputation hands ComputeSummary a node's Visibility
// column as one. Add and Merge serve only the bench/ ladder's
// core.summary_us rung (ROADMAP item 1 (c)). It is not safe for concurrent
// mutation.
type DemandSummary struct {
	Flows []FlowInfo // sorted by flow ID
	Hash  uint64     // XOR of FlowDigest over Flows; equals View.Hash() of the same set

	scratch []FlowInfo // merge buffer, reused across ticks
}

// Reset empties the summary, retaining capacity for the next tick.
func (s *DemandSummary) Reset() {
	s.Flows = s.Flows[:0]
	s.Hash = 0
}

// Add appends one flow entry. Entries must arrive in strictly ascending
// flow-ID order (the caller walks nodes ascending and each node's flows
// sorted, which — with source-node-prefixed IDs — is exactly that order);
// a violation means the aggregation invariant broke, so it panics rather
// than silently producing a summary no View could hash to.
func (s *DemandSummary) Add(f FlowInfo) {
	if n := len(s.Flows); n > 0 && s.Flows[n-1].ID >= f.ID {
		panic("core: DemandSummary.Add out of order — sourced flow sets must be disjoint and sorted")
	}
	s.Flows = append(s.Flows, f)
	s.Hash ^= FlowDigest(f)
}

// Merge folds another summary into this one: a sorted merge of the flow
// lists and an XOR of the digests. The two summaries must cover disjoint
// flow sets (distinct source shards guarantee it); a shared flow ID panics.
func (s *DemandSummary) Merge(o *DemandSummary) {
	if len(o.Flows) == 0 {
		return
	}
	merged := s.scratch[:0]
	i, j := 0, 0
	for i < len(s.Flows) && j < len(o.Flows) {
		switch {
		case s.Flows[i].ID < o.Flows[j].ID:
			merged = append(merged, s.Flows[i])
			i++
		case o.Flows[j].ID < s.Flows[i].ID:
			merged = append(merged, o.Flows[j])
			j++
		default:
			panic("core: DemandSummary.Merge saw the same flow in two shards")
		}
	}
	merged = append(merged, s.Flows[i:]...)
	merged = append(merged, o.Flows[j:]...)
	// Swap buffers so the next merge reuses the old flow slice as scratch.
	s.scratch = s.Flows[:0]
	s.Flows = merged
	s.Hash ^= o.Hash
}

// Allocation is the result of one rate computation: Rates[i], in bits/s, is
// the rate of flow IDs[i], and IDs ascend.
type Allocation struct {
	IDs   []wire.FlowID
	Rates []float64
	// ViewHash identifies the view the allocation was computed from.
	ViewHash uint64
}

// Rate returns the allocated rate for a flow (0 if absent).
func (a *Allocation) Rate(id wire.FlowID) float64 {
	if i, ok := slices.BinarySearch(a.IDs, id); ok {
		return a.Rates[i]
	}
	return 0
}

// DefaultRho is the rate-recomputation batching interval ρ (§3.3.2): flow
// events arriving within one ρ are folded into a single recomputation. The
// paper budgets 500 µs against the measured per-recomputation cost of
// Figure 8; the simulator adopts it directly and the wall-clock emulator
// scales it up to absorb scheduler jitter.
const DefaultRho = 500 * time.Microsecond

// RateComputer turns a View into rate allocations using the routing
// φ-vectors and the water-filling allocator. Every entry point runs the
// from-scratch fill over the flow set sorted by ID, so an allocation is a
// pure function of the flow set: two computers, or one computer at two
// points of its life, give bit-identical rates for equal views. That is
// what lets the simulator amortise recomputation across nodes holding
// identical views, and lets each shard of a partitioned run compute for its
// own nodes (DESIGN.md §7, §15).
//
// A RateComputer is not safe for concurrent use; the emulator gives each
// node its own.
type RateComputer struct {
	tab   *routing.Table
	alloc *waterfill.Allocator

	// last is the allocation Compute or ComputeSummary returned most
	// recently, for a flow set of lastLen flows: the view-hash shortcut's key.
	last    *Allocation
	lastLen int

	specs []waterfill.Flow // scratch, reused across computations
}

// NewRateComputer builds a computer for the given topology, link capacity
// in bits/s and headroom fraction (§3.3.2 uses 5%).
func NewRateComputer(tab *routing.Table, capacityBits float64, headroom float64) *RateComputer {
	return &RateComputer{
		tab: tab,
		alloc: waterfill.NewAllocator(waterfill.Config{
			NumLinks: tab.Graph().NumLinks(),
			Capacity: capacityBits,
			Headroom: headroom,
		}),
	}
}

// Table returns the routing table the computer uses.
func (rc *RateComputer) Table() *routing.Table { return rc.tab }

// spec translates one view entry into an allocation request. Flows whose
// source and destination coincide are host-local and carry no φ-vector.
func (rc *RateComputer) spec(f *FlowInfo) waterfill.Flow {
	s := waterfill.Flow{
		Weight:   float64(f.Weight),
		Priority: f.Priority,
		Demand:   f.DemandBits(),
	}
	if f.Src != f.Dst {
		s.Phi = rc.tab.Phi(f.Protocol, f.Src, f.Dst)
	}
	return s
}

// Compute returns the allocation for the view: the previous allocation
// outright when the view hashes to the same flow set (§5.2's cache), else
// one from-scratch fill. Each node then rate-limits its own flows to their
// allocated values (§3.3).
func (rc *RateComputer) Compute(v *View) *Allocation {
	if rc.cached(v.Hash(), v.Len()) {
		return rc.last
	}
	rc.last, rc.lastLen = rc.compute(v.Flows(), v.Hash()), v.Len()
	return rc.last
}

// ComputeSummary is Compute over a DemandSummary instead of a View; equal
// flow sets give bit-identical allocations. Both backends' recomputation
// calls it.
func (rc *RateComputer) ComputeSummary(s *DemandSummary) *Allocation {
	if rc.cached(s.Hash, len(s.Flows)) {
		return rc.last
	}
	rc.last, rc.lastLen = rc.compute(s.Flows, s.Hash), len(s.Flows)
	return rc.last
}

// ComputeFull is Compute without the view-hash shortcut: it always fills
// and leaves the cache untouched. The Figure 8 harness times the fill
// through it.
func (rc *RateComputer) ComputeFull(v *View) *Allocation {
	return rc.compute(v.Flows(), v.Hash())
}

// cached reports whether the last allocation answers a flow set of n flows
// with the given digest.
func (rc *RateComputer) cached(hash uint64, n int) bool {
	return rc.last != nil && rc.last.ViewHash == hash && rc.lastLen == n
}

// compute runs the from-scratch fill over flows, which must be sorted by
// flow ID, and labels the allocation with hash, their digest.
func (rc *RateComputer) compute(flows []FlowInfo, hash uint64) *Allocation {
	rc.specs = rc.specs[:0]
	for i := range flows {
		rc.specs = append(rc.specs, rc.spec(&flows[i]))
	}
	out := &Allocation{IDs: make([]wire.FlowID, len(flows)), Rates: rc.alloc.Allocate(rc.specs), ViewHash: hash}
	for i := range flows {
		out.IDs[i] = flows[i].ID
	}
	return out
}

// DemandEstimator implements §3.3.2 Eq. (1): a flow's demand for the next
// period is its current allocation plus the sender-side queue drained over
// one period, smoothed with an EWMA to damp noisy observations.
type DemandEstimator struct {
	period simtime.Time
	ewma   *stats.EWMA
}

// NewDemandEstimator returns an estimator with the given estimation period
// and EWMA smoothing factor (alpha in (0,1]).
func NewDemandEstimator(period simtime.Time, alpha float64) *DemandEstimator {
	if period <= 0 {
		panic("core: non-positive demand estimation period")
	}
	return &DemandEstimator{period: period, ewma: stats.NewEWMA(alpha)}
}

// Observe feeds one period's observation — the rate currently allocated
// (bits/s) and the sender-side queue occupancy (bits) at period end — and
// returns the smoothed demand estimate d[i+1] = r[i] + q[i]/T in bits/s.
func (e *DemandEstimator) Observe(allocatedBits float64, queuedBits float64) float64 {
	raw := allocatedBits + queuedBits/e.period.Seconds()
	return e.ewma.Update(raw)
}

// KbpsDemand converts a bits/s demand estimate to the Kbps wire field,
// saturating at the 4 Tbps the format can carry.
func KbpsDemand(bits float64) uint32 {
	if bits < 0 {
		return 0
	}
	k := bits / 1e3
	if k >= float64(UnlimitedDemand) {
		return UnlimitedDemand - 1
	}
	return uint32(k)
}
