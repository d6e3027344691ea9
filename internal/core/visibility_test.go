package core

import (
	"slices"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// checkRows holds a Visibility to its invariants: every index entry names its
// own in-use row of that flow, which holds at least one live or finished cell
// and whose flow has no tombstone, and every other row is free and zeroed; a
// row's counts match its cells; and every column's digest and live count
// match the cells it holds.
func checkRows(t testing.TB, v *Visibility) {
	t.Helper()
	free := map[int32]bool{}
	for i := v.free; i >= 0; i = v.rows[i].next {
		if free[i] {
			t.Fatalf("row %d is on the free list twice", i)
		}
		free[i] = true
	}
	named := map[int32]bool{}
	for _, sl := range v.index.slots {
		id, i := sl.id, sl.val
		if !sl.used {
			continue
		}
		if named[i] || free[i] || v.rows[i].id != id {
			t.Fatalf("flow %v names row %d: shared, free or another flow's (%v)", id, i, v.rows[i].id)
		}
		if v.Retired(id) {
			t.Fatalf("flow %v has an open row and a tombstone", id)
		}
		named[i] = true
	}
	if len(named)+len(free) != len(v.rows) || len(named) != v.index.n || len(v.cells) != len(v.rows)*int(v.owned) {
		t.Fatalf("%d rows named (index count %d), %d free, %d in the slab, %d cells", len(named), v.index.n, len(free), len(v.rows), len(v.cells))
	}
	digest, live := make([]uint64, v.owned), make([]int32, v.owned)
	for i := range v.rows {
		rw := &v.rows[i]
		var l, d int32
		for col := range int(v.owned) {
			switch c := *v.cell(col, int32(i)); {
			case c == cellFinished:
				d++
			case c > cellFinished && int(c-2) >= len(rw.entries):
				t.Fatalf("row %d: column %d's cell %d is past the row's %d entries", i, col, c, len(rw.entries))
			case c > cellFinished:
				l++
				digest[col] ^= rw.entries[c-2].digest
				live[col]++
			}
		}
		if d != rw.done {
			t.Fatalf("row %d (flow %v): counts done %d; cells hold %d", i, rw.id, rw.done, d)
		}
		if free[int32(i)] && (l+d != 0 || len(rw.entries) != 0) {
			t.Fatalf("free row %d holds %d live and %d finished cells, %d entries", i, l, d, len(rw.entries))
		}
		if named[int32(i)] && l+d == 0 {
			t.Fatalf("open row %d (flow %v) holds no live or finished cell", i, rw.id)
		}
	}
	for col := range int(v.owned) {
		if v.digest[col] != digest[col] || v.live[col] != live[col] {
			t.Fatalf("column %d: digest %x, live %d; its cells give %x, %d", col, v.digest[col], v.live[col], digest[col], live[col])
		}
	}
}

// visRef is the reference a Visibility is held to: a View per column, and
// per column the set of flows whose finish it holds. A flow every column
// holds finished is retired, and every start or finish, late or not,
// forgets the retired flow half the sequence space away.
type visRef struct {
	views []*View
	fin   []map[wire.FlowID]bool
}

func newVisRef(cols int) *visRef {
	ref := &visRef{}
	for range cols {
		ref.views = append(ref.views, NewView())
		ref.fin = append(ref.fin, map[wire.FlowID]bool{})
	}
	return ref
}

func (ref *visRef) retired(id wire.FlowID) bool {
	for _, fin := range ref.fin {
		if !fin[id] {
			return false
		}
	}
	return true
}

func (ref *visRef) apply(col int, b *wire.Broadcast) {
	if w := b.Flow() ^ 0x8000; b.Event <= wire.EventFlowFinish && ref.retired(w) {
		for _, fin := range ref.fin {
			delete(fin, w)
		}
	}
	switch b.Event {
	case wire.EventFlowStart:
		if ref.fin[col][b.Flow()] {
			return
		}
	case wire.EventFlowFinish:
		ref.fin[col][b.Flow()] = true
	}
	if err := ref.views[col].Apply(b); err != nil {
		panic(err)
	}
}

// FuzzVisibilityMatchesView decodes arbitrary bytes into a Visibility of one
// to four columns (the first byte) and an event stream over four sources'
// flows, sequence numbers 0-7 and the same half the 16-bit space away — four
// bytes an event: op, column (and a flood's event kind), flow, value — and
// drives the Visibility and the View-per-column reference with it: starts,
// finishes, demand and route changes at one column or flooded to all, the
// origin's own add and finish, and purges of a dead node's flows.
// Duplicates, late starts, updates to absent flows and wrapped-around
// sequence numbers fall out of the small ID space. After every event each
// column's digest and live count must equal its View's Hash and Len; every
// 16th event, and after the last, its sorted flow list and every flow's
// entry and tombstone must equal the reference's, and the rows must pass
// checkRows.
func FuzzVisibilityMatchesView(f *testing.F) {
	f.Add([]byte{})
	// A finish flooded to every column before any start retires the row;
	// the late start and update are then ignored.
	f.Add([]byte{3, 7, 4, 0x12, 1, 0, 0, 0x12, 5, 0, 3, 0x12, 5, 2, 3, 0x12, 9})
	// A flow started at two columns, finished everywhere (its row retires),
	// then a new flow takes the recycled row and is updated.
	f.Add([]byte{3, 0, 0, 0x00, 7, 0, 2, 0x00, 7, 7, 4, 0x00, 1, 0, 1, 0x01, 3, 2, 1, 0x01, 9, 3, 1, 0x01, 2, 0, 0, 0x00, 7})
	// The origin adds, updates and finishes a flow; a purge of its
	// destination's flows hits another.
	f.Add([]byte{3, 4, 1, 0x13, 0, 7, 0, 0x13, 0, 4, 1, 0x13, 40, 5, 1, 0x13, 0, 0, 3, 0x21, 6, 6, 0, 0, 2})
	// Two columns: a finish at one, then the start at both; only the column
	// that has not seen the finish applies it.
	f.Add([]byte{1, 1, 0, 0x12, 0, 0, 0, 0x12, 5, 0, 1, 0x12, 5})
	// One column, as an emulator node: a start with no finish applies; after
	// the finish the same flow's start is late, while the next sequence
	// number's applies; the start half the sequence space away clears the
	// tombstone, and the wrapped-around flow then starts clean.
	f.Add([]byte{0, 0, 0, 0x34, 5, 1, 0, 0x34, 0, 0, 0, 0x34, 5, 0, 0, 0x35, 5, 0, 0, 0x3C, 5, 0, 0, 0x34, 6})
	// One column: a finish ahead of its start half the sequence space away
	// still lets that late start clear the wrapped-around flow's tombstone.
	f.Add([]byte{0, 1, 0, 0x34, 0, 1, 0, 0x3C, 0, 0, 0, 0x3C, 5, 0, 0, 0x34, 5})
	// One column: a finish half the sequence space away clears the
	// tombstone as a start would, so the wrapped-around start applies.
	f.Add([]byte{0, 1, 0, 0x34, 0, 1, 0, 0x3C, 0, 0, 0, 0x34, 5})
	// One column, as an emulator origin: its own flows' adds and finishes
	// (a flow abandoned at birth is both), then the wrapped-around flow.
	f.Add([]byte{0, 4, 0, 0x34, 5, 5, 0, 0x34, 0, 4, 0, 0x3C, 5, 5, 0, 0x3C, 0, 4, 0, 0x34, 5})
	// Two columns: a purge frees the row of a flow both held live; a flow
	// finished at one column keeps its row through a purge, and retires
	// when the other column's finish arrives.
	f.Add([]byte{1, 7, 0, 0x21, 3, 7, 0, 0x22, 3, 1, 0, 0x22, 0, 6, 0, 0, 2, 1, 1, 0x22, 0, 0, 1, 0x22, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 1+4*4096)]
		cols := 1
		if len(data) > 0 {
			cols, data = 1+int(data[0]%4), data[1:]
		}
		const sources = 4
		vis, ref := NewVisibility(cols), newVisRef(cols)
		v := &vis
		var buf []FlowInfo
		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			col := int(data[1]) % cols
			src := topology.NodeID((data[2] >> 4) % sources)
			seq := uint16(data[2]&7) | uint16(data[2]&8)<<12
			info := FlowInfo{ID: wire.MakeFlowID(uint16(src), seq), Src: src, Dst: (src + 1) % sources,
				Weight: 1, DemandKbps: uint32(data[3]), Protocol: routing.Protocol(data[3] % 4)}
			switch op := data[0] % 8; op {
			case 4: // the origin's own add or update, as a start
				ref.apply(col, info.StartBroadcast(0))
				v.Hold(col, info)
			case 5: // the origin's own finish
				ref.apply(col, info.FinishBroadcast(0))
				v.Finish(col, info.ID)
			case 6: // a purge of a dead node's flows
				dead := make([]bool, sources)
				dead[data[3]%sources] = true
				for _, view := range ref.views {
					for _, fi := range view.Flows() {
						if dead[fi.Src] || dead[fi.Dst] {
							view.RemoveFlow(fi.ID)
						}
					}
				}
				v.Purge(dead)
			default: // one event at one column (ops 0-3) or flooded to all (op 7)
				ev := wire.EventFlowStart + wire.EventKind(op)
				if op == 7 {
					ev = wire.EventFlowStart + wire.EventKind(data[1]>>2%4)
				}
				b := info.StartBroadcast(0)
				b.Event = ev
				for c := range cols {
					if op == 7 || c == col {
						ref.apply(c, b)
						v.Apply(c, b)
					}
				}
			}
			full := step%16 == 0 || len(data) < 8
			for c, view := range ref.views {
				if v.Digest(c) != view.Hash() || v.Len(c) != view.Len() {
					t.Fatalf("step %d, column %d: digest %x, live %d; View hash %x, len %d", step, c, v.Digest(c), v.Len(c), view.Hash(), view.Len())
				}
				if !full {
					continue
				}
				buf = v.AppendFlows(buf[:0], c)
				if want := view.Flows(); !slices.Equal(buf, want) {
					t.Fatalf("step %d, column %d: flows %v; View %v", step, c, buf, want)
				}
			}
			if !full {
				continue
			}
			for s := range uint16(sources) {
				for _, seq := range []uint16{0, 1, 2, 3, 4, 5, 6, 7, 0x8000, 0x8001, 0x8002, 0x8003, 0x8004, 0x8005, 0x8006, 0x8007} {
					id := wire.MakeFlowID(s, seq)
					if got, want := v.Retired(id), ref.retired(id); got != want {
						t.Fatalf("step %d, flow %v: retired %v, want %v", step, id, got, want)
					}
					for c, view := range ref.views {
						got, ok := v.Get(c, id)
						if want, wok := view.Get(id); ok != wok || got != want {
							t.Fatalf("step %d, column %d, flow %v: Get %v %v; View %v %v", step, c, id, got, ok, want, wok)
						}
					}
				}
			}
			checkRows(t, v)
		}
	})
}

// Get returns column col's live entry for a flow.
func (v *Visibility) Get(col int, id wire.FlowID) (FlowInfo, bool) {
	if i, ok := v.index.get(id); ok && *v.cell(col, i) > cellFinished {
		return v.rows[i].entries[*v.cell(col, i)-2].info, true
	}
	return FlowInfo{}, false
}
