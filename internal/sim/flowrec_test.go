package sim

import (
	"math/rand"
	"testing"

	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// mapLedger is the ID-keyed ledger flowTable replaced (with the per-source
// sequence counters the transports kept beside it): the reference.
type mapLedger struct {
	records map[wire.FlowID]*FlowRecord
	order   []*FlowRecord
	nextSeq map[topology.NodeID]uint16
}

func (l *mapLedger) open(src, dst topology.NodeID, size int64, at simtime.Time) *FlowRecord {
	id := wire.MakeFlowID(uint16(src), l.nextSeq[src])
	l.nextSeq[src]++
	r := l.openRecv(id, src, dst, size, at)
	l.order = append(l.order, r)
	return r
}

func (l *mapLedger) openRecv(id wire.FlowID, src, dst topology.NodeID, size int64, at simtime.Time) *FlowRecord {
	r := &FlowRecord{ID: id, Src: src, Dst: dst, SizeBytes: size, Started: at}
	l.records[id] = r
	return r
}

// TestFlowTableMatchesMapReference opens flows in a table and in the map
// ledger it replaced — as their source (open) and as a remote receiver
// (openRecv, which may come in any order and skip sequences) — and compares
// every lookup, hit or miss. Source 0 is presized for fewer flows than it
// starts and runs to the last sequence number a source has; source 3 is not
// presized at all; the IDs looked up include sources the table has no row for.
func TestFlowTableMatchesMapReference(t *testing.T) {
	const sources = 6
	tab := newFlowTable[int](sources)
	carveRows(tab.rows, []int{100, 8, 8, 0, 8, 8})
	ref := &mapLedger{records: map[wire.FlowID]*FlowRecord{}, nextSeq: map[topology.NodeID]uint16{}}
	rng := rand.New(rand.NewSource(1))

	same := func(a, b *FlowRecord) bool { return *a == *b }
	check := func(id wire.FlowID) {
		t.Helper()
		slot, want := tab.get(id), ref.records[id]
		switch {
		case slot == nil && want == nil:
		case slot == nil || want == nil:
			t.Fatalf("get(%v): slot %v, reference record %v", id, slot, want)
		case !same(slot.rec, want):
			t.Fatalf("get(%v) = %+v, want %+v", id, *slot.rec, *want)
		case slot.st != int(id):
			t.Fatalf("get(%v): slot state %d is another flow's", id, slot.st)
		}
	}
	randomID := func() wire.FlowID {
		return wire.MakeFlowID(uint16(rng.Intn(sources+2)), uint16(rng.Intn(wire.MaxFlowsPerSource+1)))
	}
	for step := 0; step < 75_000; step++ {
		at := simtime.Time(step)
		src := topology.NodeID(0) // mostly source 0, until it runs out of sequence numbers
		if step%16 == 15 || ref.nextSeq[0] == wire.MaxFlowsPerSource {
			src = topology.NodeID(1 + rng.Intn(4))
		}
		var id wire.FlowID
		if src == 4 {
			// Source 4 is remote: only receive-side records, in any order.
			if id = wire.MakeFlowID(4, uint16(rng.Intn(2000))); ref.records[id] != nil {
				continue
			}
			tab.openRecv(id, src, 5, int64(step), at).st = int(id)
			ref.openRecv(id, src, 5, int64(step), at)
		} else {
			slot := tab.open(src, 5, int64(step), at)
			id = ref.open(src, 5, int64(step), at).ID
			slot.st = int(id)
		}
		check(id)
		check(randomID())
		check(wire.MakeFlowID(uint16(src), uint16(rng.Intn(int(ref.nextSeq[src])+2)))) // around the source's latest
	}

	if got, want := len(tab.order), len(ref.order); got != want {
		t.Fatalf("%d records in creation order, want %d", got, want)
	}
	for i := range tab.order {
		if !same(tab.order[i], ref.order[i]) {
			t.Fatalf("order[%d] = %+v, want %+v", i, *tab.order[i], *ref.order[i])
		}
	}
	last := wire.MakeFlowID(0, wire.MaxFlowsPerSource-1)
	if slot := tab.get(last); slot == nil || slot.rec.ID != last {
		t.Fatalf("source 0's last flow, sequence %d, is not in the table", last.Seq())
	}
	ledger := tab.ledger()
	if len(ledger) != len(ref.records) {
		t.Fatalf("ledger() holds %d records, want %d", len(ledger), len(ref.records))
	}
	for id, want := range ref.records {
		if got := ledger[id]; got == nil || !same(got, want) {
			t.Fatalf("ledger()[%v] = %v, want %+v", id, got, *want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a source's 65,536th flow did not panic: its ID would be its first flow's")
		}
	}()
	tab.open(0, 5, 1, 0)
}
