package core

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/waterfill"
	"r2c2/internal/wire"
)

func flowInfo(src, dst topology.NodeID, seq uint16) FlowInfo {
	return FlowInfo{
		ID:         wire.MakeFlowID(uint16(src), seq),
		Src:        src,
		Dst:        dst,
		Weight:     1,
		DemandKbps: UnlimitedDemand,
		Protocol:   routing.RPS,
	}
}

func TestViewApplyStartFinish(t *testing.T) {
	v := NewView()
	f := flowInfo(1, 2, 7)
	if err := v.Apply(f.StartBroadcast(0)); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 {
		t.Fatalf("len = %d", v.Len())
	}
	got, ok := v.Get(f.ID)
	if !ok {
		t.Fatal("flow missing after start")
	}
	if got != f {
		t.Fatalf("round trip through broadcast: got %+v want %+v", got, f)
	}
	if err := v.Apply(f.FinishBroadcast(0)); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 0 {
		t.Fatal("flow still present after finish")
	}
}

func TestViewHashOrderIndependent(t *testing.T) {
	a, b := NewView(), NewView()
	f1, f2, f3 := flowInfo(1, 2, 1), flowInfo(3, 4, 2), flowInfo(5, 6, 3)
	for _, f := range []FlowInfo{f1, f2, f3} {
		a.AddFlow(f)
	}
	for _, f := range []FlowInfo{f3, f1, f2} {
		b.AddFlow(f)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("hash depends on insertion order")
	}
	// Removing and re-adding restores the hash.
	h := a.Hash()
	a.RemoveFlow(f2.ID)
	if a.Hash() == h {
		t.Fatal("hash unchanged after removal")
	}
	a.AddFlow(f2)
	if a.Hash() != h {
		t.Fatal("hash not restored after re-add")
	}
	// Empty views hash equal.
	if NewView().Hash() != NewView().Hash() {
		t.Fatal("empty view hashes differ")
	}
}

func TestViewVersionBumpsOnMutation(t *testing.T) {
	v := NewView()
	f := flowInfo(0, 1, 1)
	v0 := v.Version()
	v.AddFlow(f)
	if v.Version() == v0 {
		t.Fatal("version not bumped on add")
	}
	v1 := v.Version()
	v.RemoveFlow(wire.MakeFlowID(9, 9)) // unknown: no-op
	if v.Version() != v1 {
		t.Fatal("version bumped on no-op removal")
	}
}

func TestViewDemandAndRouteUpdates(t *testing.T) {
	v := NewView()
	f := flowInfo(1, 2, 1)
	v.AddFlow(f)
	f.DemandKbps = 5000
	if err := v.Apply(f.Broadcast(wire.EventDemandUpdate, 0)); err != nil {
		t.Fatal(err)
	}
	got, _ := v.Get(f.ID)
	if got.DemandKbps != 5000 {
		t.Fatalf("demand = %d", got.DemandKbps)
	}
	f.Protocol = routing.VLB
	if err := v.Apply(f.Broadcast(wire.EventRouteChange, 0)); err != nil {
		t.Fatal(err)
	}
	got, _ = v.Get(f.ID)
	if got.Protocol != routing.VLB {
		t.Fatalf("protocol = %v", got.Protocol)
	}
	// Update for an unknown flow is silently dropped (races a finish).
	unknown := flowInfo(7, 8, 9)
	if err := v.Apply(unknown.Broadcast(wire.EventDemandUpdate, 0)); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 {
		t.Fatal("dropped update created a flow")
	}
}

func TestViewApplyUnknownEvent(t *testing.T) {
	v := NewView()
	b := &wire.Broadcast{Event: wire.EventKind(0xF)}
	if err := v.Apply(b); err == nil {
		t.Fatal("unknown event accepted")
	}
}

func TestViewFlowsSorted(t *testing.T) {
	v := NewView()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		v.AddFlow(flowInfo(topology.NodeID(rng.Intn(8)), topology.NodeID(8+rng.Intn(8)), uint16(rng.Intn(1000))))
	}
	flows := v.Flows()
	for i := 1; i < len(flows); i++ {
		if flows[i].ID <= flows[i-1].ID {
			t.Fatal("Flows() not sorted by ID")
		}
	}
}

func TestFlowInfoDemandBits(t *testing.T) {
	f := flowInfo(0, 1, 1)
	if f.DemandBits() != waterfill.Unlimited {
		t.Fatal("unlimited demand not mapped")
	}
	f.DemandKbps = 2000
	if f.DemandBits() != 2e6 {
		t.Fatalf("DemandBits = %v", f.DemandBits())
	}
}

func TestBroadcastWireRoundTrip(t *testing.T) {
	f := FlowInfo{
		ID:         wire.MakeFlowID(3, 99),
		Src:        3,
		Dst:        40,
		Weight:     2,
		Priority:   1,
		DemandKbps: 123456,
		Protocol:   routing.WLB,
	}
	pkt := wire.EncodeBroadcast(f.StartBroadcast(5))
	decoded, err := wire.DecodeBroadcast(pkt[:])
	if err != nil {
		t.Fatal(err)
	}
	v := NewView()
	if err := v.Apply(decoded); err != nil {
		t.Fatal(err)
	}
	got, ok := v.Get(f.ID)
	if !ok || got != f {
		t.Fatalf("wire round trip: %+v vs %+v", got, f)
	}
	if decoded.Tree != 5 {
		t.Fatalf("tree = %d", decoded.Tree)
	}
}

func newComputer(t testing.TB) *RateComputer {
	t.Helper()
	g, err := topology.NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return NewRateComputer(routing.NewTable(g), 10e9, 0.05)
}

func TestComputeSingleFlow(t *testing.T) {
	rc := newComputer(t)
	v := NewView()
	v.AddFlow(flowInfo(0, 5, 1))
	alloc := rc.Compute(v)
	r := alloc.Rate(wire.MakeFlowID(0, 1))
	// A lone RPS flow on an idle 4x4 torus: two disjoint minimal directions
	// from the source; with a 0.5/0.5 split the first-hop links bound the
	// flow at 2 × 9.5 Gbps... unless an interior link is more loaded. At
	// minimum it must beat a single link's effective capacity.
	if r < 9.5e9-1 {
		t.Fatalf("single-flow rate = %v, want >= 9.5e9", r)
	}
	if alloc.ViewHash != v.Hash() {
		t.Fatal("allocation not stamped with view hash")
	}
	if alloc.Rate(wire.MakeFlowID(9, 9)) != 0 {
		t.Fatal("unknown flow should have rate 0")
	}
}

func TestComputeFairness(t *testing.T) {
	rc := newComputer(t)
	v := NewView()
	// Two identical flows between the same endpoints must get equal rates.
	v.AddFlow(flowInfo(0, 5, 1))
	v.AddFlow(flowInfo(0, 5, 2))
	alloc := rc.Compute(v)
	r1, r2 := alloc.Rate(wire.MakeFlowID(0, 1)), alloc.Rate(wire.MakeFlowID(0, 2))
	if math.Abs(r1-r2) > 1 {
		t.Fatalf("equal flows got %v and %v", r1, r2)
	}
	if r1 <= 0 {
		t.Fatal("zero rate")
	}
}

// All nodes computing over identical views must produce identical
// allocations — the keystone of probe-free congestion control (§3.3).
func TestComputeDeterministicAcrossNodes(t *testing.T) {
	rcA, rcB := newComputer(t), newComputer(t)
	viewA, viewB := NewView(), NewView()
	rng := rand.New(rand.NewSource(5))
	var infos []FlowInfo
	for i := 0; i < 30; i++ {
		src := topology.NodeID(rng.Intn(16))
		dst := topology.NodeID(rng.Intn(16))
		if src == dst {
			continue
		}
		f := flowInfo(src, dst, uint16(i))
		f.Protocol = []routing.Protocol{routing.RPS, routing.DOR, routing.VLB, routing.WLB}[rng.Intn(4)]
		infos = append(infos, f)
	}
	for _, f := range infos {
		viewA.AddFlow(f)
	}
	for i := len(infos) - 1; i >= 0; i-- { // reversed arrival order at node B
		viewB.AddFlow(infos[i])
	}
	a, b := rcA.Compute(viewA), rcB.Compute(viewB)
	for i, id := range a.IDs {
		if ra, rb := a.Rates[i], b.Rate(id); math.Abs(ra-rb) > 1e-6*math.Max(ra, 1) {
			t.Fatalf("flow %v: node A computed %v, node B %v", id, ra, rb)
		}
	}
}

func TestComputeRespectsHeadroom(t *testing.T) {
	rc := newComputer(t)
	v := NewView()
	// Saturate one link with a DOR flow between neighbours.
	f := flowInfo(0, 1, 1)
	f.Protocol = routing.DOR
	v.AddFlow(f)
	alloc := rc.Compute(v)
	if r := alloc.Rate(f.ID); math.Abs(r-9.5e9) > 1 {
		t.Fatalf("rate = %v, want 9.5e9 (5%% headroom)", r)
	}
}

func TestDemandEstimator(t *testing.T) {
	e := NewDemandEstimator(simtime.Millisecond, 1.0) // no smoothing
	// Eq (1): d = r + q/T. 1 Gbps allocated, 1 Mbit queued over 1 ms -> 2 Gbps.
	got := e.Observe(1e9, 1e6)
	if math.Abs(got-2e9) > 1 {
		t.Fatalf("demand = %v, want 2e9", got)
	}
	if e.Estimate() != got {
		t.Fatal("Estimate mismatch")
	}
	// With smoothing the estimate moves gradually.
	e2 := NewDemandEstimator(simtime.Millisecond, 0.5)
	e2.Observe(1e9, 0)
	second := e2.Observe(3e9, 0)
	if math.Abs(second-2e9) > 1 {
		t.Fatalf("smoothed = %v, want 2e9", second)
	}
}

func TestDemandEstimatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDemandEstimator(0, 0.5)
}

func TestKbpsDemand(t *testing.T) {
	if KbpsDemand(-5) != 0 {
		t.Error("negative demand")
	}
	if KbpsDemand(2e6) != 2000 {
		t.Errorf("KbpsDemand(2e6) = %d", KbpsDemand(2e6))
	}
	if KbpsDemand(1e18) != UnlimitedDemand-1 {
		t.Error("saturation failed")
	}
}

// TestComputeIsHistoryFree churns one view through hundreds of start /
// finish / demand-update / route-change events and requires, after every
// event, that one long-lived computer's Compute equal a fresh computer's bit
// for bit, rate by rate. A partitioned simulation run has each shard compute
// for its own nodes on its own computer, which has seen a different sequence
// of views than one shard's: its Results are byte-identical to one shard's
// only because an allocation depends on the flow set alone.
func TestComputeIsHistoryFree(t *testing.T) {
	rc := newComputer(t)
	v := NewView()
	rng := rand.New(rand.NewSource(42))
	protos := []routing.Protocol{routing.RPS, routing.DOR, routing.VLB, routing.WLB}
	var ids []wire.FlowID
	seq := uint16(0)
	for ev := 0; ev < 400; ev++ {
		switch {
		case len(ids) == 0 || (len(ids) < 48 && rng.Intn(2) == 0):
			seq++
			src := topology.NodeID(rng.Intn(8))
			dst := topology.NodeID(rng.Intn(8))
			f := flowInfo(src, dst, seq) // src == dst is a host-local flow
			f.Protocol = protos[rng.Intn(len(protos))]
			f.Weight = uint8(1 + rng.Intn(4))
			f.Priority = uint8(rng.Intn(3))
			if rng.Intn(3) == 0 {
				f.DemandKbps = uint32(rng.Intn(12e6))
			}
			v.AddFlow(f)
			ids = append(ids, f.ID)
		case rng.Intn(2) == 0:
			id := ids[rng.Intn(len(ids))]
			f, _ := v.Get(id)
			if rng.Intn(2) == 0 {
				f.DemandKbps = uint32(rng.Intn(12e6))
			} else {
				f.Protocol = protos[rng.Intn(len(protos))]
			}
			v.AddFlow(f)
		default:
			i := rng.Intn(len(ids))
			v.RemoveFlow(ids[i])
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		got := rc.Compute(v)
		want := newComputer(t).Compute(v)
		if len(got.Rates) != len(want.Rates) {
			t.Fatalf("event %d: %d rates vs %d", ev, len(got.Rates), len(want.Rates))
		}
		for i, id := range want.IDs {
			if g, w := got.Rates[i], want.Rates[i]; got.IDs[i] != id || g != w {
				t.Fatalf("event %d: flow %v: long-lived computer %v, fresh computer %v", ev, id, g, w)
			}
		}
	}
}

// An unchanged view must be answered from the hash shortcut without any
// allocator work.
func TestComputeViewHashShortcut(t *testing.T) {
	rc := newComputer(t)
	v := NewView()
	v.AddFlow(flowInfo(0, 5, 1))
	a := rc.Compute(v)
	b := rc.Compute(v)
	if a != b {
		t.Fatal("identical view should return the cached allocation")
	}
	if rc.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", rc.CacheHits)
	}
	v.AddFlow(flowInfo(0, 5, 2))
	if c := rc.Compute(v); c == a {
		t.Fatal("mutated view must recompute")
	}
}

// mapView is the view core.View used to be — a Go map from flow ID to entry —
// kept here as the oracle for the open-addressing table that replaced it.
type mapView struct {
	flows   map[wire.FlowID]FlowInfo
	version uint64
}

func (m *mapView) apply(b *wire.Broadcast) {
	id := b.Flow()
	f, live := m.flows[id]
	switch b.Event {
	case wire.EventFlowStart:
		f = FlowInfo{ID: id, Src: topology.NodeID(b.Src), Dst: topology.NodeID(b.Dst), Weight: b.Weight,
			Priority: b.Priority, DemandKbps: b.DemandKbps, Protocol: routing.Protocol(b.RP)}
	case wire.EventFlowFinish:
		if live {
			delete(m.flows, id)
			m.version++
		}
		return
	case wire.EventDemandUpdate:
		f.DemandKbps = b.DemandKbps
	case wire.EventRouteChange:
		f.Protocol = routing.Protocol(b.RP)
	}
	if live || b.Event == wire.EventFlowStart {
		m.flows[id] = f
		m.version++
	}
}

// requireSame compares everything a View exposes against the reference, and
// returns the flows they agree on.
func (m *mapView) requireSame(t *testing.T, v *View, step int, probes ...wire.FlowID) []FlowInfo {
	t.Helper()
	// Flows() must be the map's entries in ascending ID order: as many, each
	// one the map's, each ID above the one before.
	got, hash := v.Flows(), uint64(0)
	for i, f := range got {
		if ref, ok := m.flows[f.ID]; !ok || f != ref || (i > 0 && got[i-1].ID >= f.ID) {
			t.Fatalf("step %d: Flows()[%d] = %+v after ID %v; reference entry %+v (present %v)", step, i, f, got[max(i, 1)-1].ID, ref, ok)
		}
		hash ^= FlowDigest(f)
	}
	if len(got) != len(m.flows) || v.Len() != len(m.flows) || v.Hash() != hash || v.Version() != m.version {
		t.Fatalf("step %d: view lists %d flows, has len %d hash %#x version %d; reference len %d hash %#x version %d",
			step, len(got), v.Len(), v.Hash(), v.Version(), len(m.flows), hash, m.version)
	}
	for _, id := range probes {
		m.requireGet(t, v, step, id)
	}
	return got
}

// requireGet is the part of requireSame that costs nothing: one lookup, and
// the counters.
func (m *mapView) requireGet(t *testing.T, v *View, step int, id wire.FlowID) {
	got, ok := v.Get(id)
	if ref, refOK := m.flows[id]; ok != refOK || got != ref || v.Len() != len(m.flows) || v.Version() != m.version {
		t.Fatalf("step %d: Get(%v) = %+v, %v, len %d, version %d; reference %+v, %v, len %d, version %d",
			step, id, got, ok, v.Len(), v.Version(), ref, refOK, len(m.flows), m.version)
	}
}

// TestViewSlotSize holds a View's table slot to 28 bytes, key and entry
// included, so that a probe stays within one cache line.
func TestViewSlotSize(t *testing.T) {
	if sz := unsafe.Sizeof(tableSlot[FlowInfo]{}); sz > 28 {
		t.Fatalf("view slot is %d bytes, budget 28", sz)
	}
}

// TestViewMatchesMapReference drives a View and the map reference with one
// randomised event stream — starts (duplicates included), finishes and
// demand/route updates (of unknown flows too) — and requires Len, Hash,
// Version, Get and Flows() to agree after every event. A third of the IDs
// hash to the table's last slot at every size the run reaches, so clusters
// wrap the table end and backward-shift deletes pull entries across it; the
// live-set target swings so the table doubles at least four times.
func TestViewMatchesMapReference(t *testing.T) {
	steps := 100_000
	if testing.Short() {
		steps = 30_000
	}
	rng := rand.New(rand.NewSource(1))
	atEnd := &View{table: table[FlowInfo]{shift: 32 - 12}} // a 4096-slot table's hash: top bits all set = last slot at every smaller size too
	var pool, endPool []wire.FlowID
	for id := wire.FlowID(0); len(endPool) < 300; id++ {
		if atEnd.home(id) == 1<<12-1 {
			endPool = append(endPool, id)
		}
	}
	for i := 0; i < 600; i++ {
		pool = append(pool, wire.MakeFlowID(uint16(rng.Intn(512)), uint16(rng.Intn(8)))) // random, with repeats
	}
	pool = append(pool, endPool...)

	v, ref := NewView(), &mapView{flows: map[wire.FlowID]FlowInfo{}}
	targets := []int{6, 40, 100, 12, 200, 3, 30}
	wrapped, maxSlots := 0, 0
	var live []FlowInfo
	for step := 0; step < steps; step++ {
		id := pool[rng.Intn(len(pool))]
		switch r := rng.Intn(6); {
		case r < 2:
			id = endPool[rng.Intn(len(endPool))]
		case r < 4 && len(live) > 0:
			id = live[rng.Intn(len(live))].ID // so that finishes and updates mostly hit
		}
		f := FlowInfo{ID: id, Src: topology.NodeID(id.Src()), Dst: topology.NodeID(rng.Intn(512)), Weight: uint8(1 + rng.Intn(3)),
			Priority: uint8(rng.Intn(2)), DemandKbps: uint32(rng.Intn(4)), Protocol: routing.Protocol(rng.Intn(4))}
		var b *wire.Broadcast
		switch r := rng.Intn(20); {
		case r < 2:
			b = f.Broadcast(wire.EventDemandUpdate, 0)
		case r < 4:
			b = f.Broadcast(wire.EventRouteChange, 0)
		case (r < 15) == (v.Len() < targets[step*len(targets)/steps]): // 11 in 16 toward the current target size
			b = f.StartBroadcast(0)
		default:
			b = f.FinishBroadcast(0)
			if _, live := ref.flows[id]; live && v.slots[len(v.slots)-1].used && v.slots[0].used && v.home(id) == len(v.slots)-1 {
				wrapped++
			}
		}
		ref.apply(b)
		switch {
		case b.Event == wire.EventFlowStart && step%2 == 0:
			v.AddFlow(f) // the sender's own path
		case b.Event == wire.EventFlowFinish && step%2 == 0:
			v.RemoveFlow(id)
		default:
			if err := v.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		live = ref.requireSame(t, v, step, id, pool[rng.Intn(len(pool))])
		maxSlots = max(maxSlots, len(v.slots))
	}
	if maxSlots < 1<<(tableMinBits+4) {
		t.Errorf("table peaked at %d slots: fewer than four doublings from %d", maxSlots, 1<<tableMinBits)
	}
	if wrapped < 100 {
		t.Errorf("only %d finishes hit a cluster wrapped around the table end", wrapped)
	}
}

// FuzzViewApply decodes arbitrary bytes into an event stream — four bytes an
// event: kind, source, sequence, demand and protocol — over a small ID space,
// and holds the View to the map reference.
func FuzzViewApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 1, 1, 2, 0, 2, 1, 2, 9, 3, 1, 2, 1, 1, 1, 2, 0})
	seq := make([]byte, 0, 4*64)
	for i := byte(0); i < 64; i++ { // fill past three doublings, then drain in another order
		seq = append(seq, 0, i, i*7, i)
	}
	for i := byte(0); i < 64; i++ {
		seq = append(seq, 1, i*5%64, i*5%64*7, 0)
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4*4096)] // the mutator grows inputs to a megabyte; 4,096 events say as much
		v, ref := NewView(), &mapView{flows: map[wire.FlowID]FlowInfo{}}
		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			src, seq := uint16(data[1]%16), uint16(data[2]%64) // 1,024 IDs: finishes and updates hit, tables reach 2,048 slots
			info := FlowInfo{ID: wire.MakeFlowID(src, seq), Src: topology.NodeID(src), Dst: 1,
				Weight: 1, DemandKbps: uint32(data[3]), Protocol: routing.Protocol(data[3] % 4)}
			b := info.Broadcast(wire.EventFlowStart+wire.EventKind(data[0]%4), 0)
			ref.apply(b)
			if err := v.Apply(b); err != nil {
				t.Fatal(err)
			}
			ref.requireGet(t, v, step, info.ID)
			if step%16 == 0 || len(data) < 8 { // the full comparison sorts the view: every 16th event, and the last
				ref.requireSame(t, v, step)
			}
		}
	})
}
