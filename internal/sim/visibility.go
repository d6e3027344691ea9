package sim

import (
	"cmp"
	"fmt"
	"slices"

	"r2c2/internal/core"
	"r2c2/internal/routing"
	"r2c2/internal/wire"
)

// Visibility rows hold the views of an R2C2 instance's nodes (§3.1–§3.2)
// per flow, not per node: a flood delivers one event to every node, so it
// writes one row. A row has a cell per owned node saying whether the node
// holds the flow absent, finished, or live with one of the flow's few
// distinct announced values. A node keeps only its live entries' XOR digest
// (core.View.Hash's) and count. When every node here holds the finish, the
// row is recycled and the flow's index entry becomes its tombstone.

// Cell values (cell 2+k holds the row's entries[k]), and the index entry of
// a flow whose row was recycled.
const (
	visAbsent   uint16 = 0
	visFinished uint16 = 1
	visRetired         = -1
)

// visRow is one flow's visibility over the instance's nodes.
type visRow struct {
	id      wire.FlowID // kept here: a row can retire before any node holds an entry
	entries []visEntry  // the flow's distinct announced values
	live    int32       // nodes holding a live entry
	done    int32       // nodes holding visFinished
}

type visEntry struct {
	info   core.FlowInfo
	digest uint64 // core.FlowDigest(info)
}

// visRowOf returns the index of the flow's row, or -1 when the row has
// retired or, unless create is set, when no node here has heard of the flow.
func (r *R2C2) visRowOf(id wire.FlowID, create bool) int32 {
	idx, seq := r.vis[id.Src()], int(id.Seq())
	if seq >= len(idx) {
		if !create {
			return -1
		}
		idx = append(idx, make([]int32, seq+1-len(idx))...) // doubles: one growth per many flows
		r.vis[id.Src()] = idx
	}
	if h := idx[seq]; h != 0 || !create {
		return max(h-1, -1) // the row, or -1 if retired or unheard of
	}
	i := int32(len(r.rows))
	if n := len(r.freeRows); n > 0 {
		i, r.freeRows = r.freeRows[n-1], r.freeRows[:n-1]
	} else {
		r.rows = append(r.rows, visRow{})
		r.cells = append(r.cells, make([]uint16, r.owned)...)
	}
	r.rows[i].id = id
	idx[seq] = i + 1
	return i
}

// cell returns node's cell of row i.
func (r *R2C2) cell(i int32, node *r2c2Node) *uint16 {
	return &r.cells[int(i)*int(r.owned)+int(node.col)]
}

// entryOf returns the cell value naming info in row i, adding the entry if
// it is new to the flow.
func (r *R2C2) entryOf(i int32, info core.FlowInfo) uint16 {
	rw := &r.rows[i]
	for k := len(rw.entries) - 1; k >= 0; k-- {
		if rw.entries[k].info == info {
			return uint16(k) + 2
		}
	}
	if len(rw.entries) == 1<<16-2 {
		panic(fmt.Sprintf("sim: flow %v announced more distinct values than a visibility cell can name", rw.id))
	}
	rw.entries = append(rw.entries, visEntry{info, core.FlowDigest(info)})
	return uint16(len(rw.entries)) + 1
}

// setCell makes node hold c of row i, keeping the node's digest and count
// and the row's counts, and retires the row once every node here holds the
// flow's finish.
func (r *R2C2) setCell(node *r2c2Node, i int32, c uint16) {
	rw, cell := &r.rows[i], r.cell(i, node)
	switch old := *cell; {
	case old == visFinished:
		rw.done--
	case old != visAbsent:
		node.digest ^= rw.entries[old-2].digest
		node.live--
		rw.live--
	}
	*cell = c
	switch {
	case c == visFinished:
		if rw.done++; rw.done == r.owned {
			r.retireRow(i)
		}
	case c != visAbsent:
		node.digest ^= rw.entries[c-2].digest
		node.live++
		rw.live++
	}
}

// retireRow recycles row i, all of whose cells hold the finish.
func (r *R2C2) retireRow(i int32) {
	rw := &r.rows[i]
	r.vis[rw.id.Src()][rw.id.Seq()] = visRetired
	clear(r.cells[int(i)*int(r.owned):][:r.owned])
	rw.entries, rw.done = rw.entries[:0], 0
	r.freeRows = append(r.freeRows, i)
}

// hold makes node hold info live: the origin's own AddFlow.
func (r *R2C2) hold(node *r2c2Node, info core.FlowInfo) {
	if i := r.visRowOf(info.ID, true); i >= 0 {
		r.setCell(node, i, r.entryOf(i, info))
	}
}

// apply folds a flooded event into node's cell by core.View.Apply's rule,
// except that a finish stays as a tombstone: a start is ignored where the
// finish was applied first (a §3.2 retransmission racing its own finish).
func (r *R2C2) apply(node *r2c2Node, b *wire.Broadcast) {
	id := b.Flow()
	switch b.Event {
	case wire.EventFlowStart:
		if i := r.visRowOf(id, true); i >= 0 && *r.cell(i, node) != visFinished {
			r.setCell(node, i, r.entryOf(i, core.BroadcastInfo(b)))
		}
	case wire.EventFlowFinish:
		if i := r.visRowOf(id, true); i >= 0 {
			r.setCell(node, i, visFinished)
		}
	case wire.EventDemandUpdate, wire.EventRouteChange:
		i := r.visRowOf(id, false)
		if i < 0 || *r.cell(i, node) <= visFinished {
			return // an update racing a finish, or ahead of the start
		}
		info := r.rows[i].entries[*r.cell(i, node)-2].info
		if b.Event == wire.EventDemandUpdate {
			info.DemandKbps = b.DemandKbps
		} else {
			info.Protocol = routing.Protocol(b.RP)
		}
		r.setCell(node, i, r.entryOf(i, info))
	default:
		panic(fmt.Sprintf("sim: unknown broadcast event %v", b.Event))
	}
}

// liveFlows appends the flows node holds live to buf, sorted by flow ID: the
// list core.View.Flows gives for the same flow set.
func (r *R2C2) liveFlows(buf []core.FlowInfo, node *r2c2Node) []core.FlowInfo {
	for i := range r.rows {
		if c := *r.cell(int32(i), node); c > visFinished {
			buf = append(buf, r.rows[i].entries[c-2].info)
		}
	}
	slices.SortFunc(buf, func(a, b core.FlowInfo) int { return cmp.Compare(a.ID, b.ID) })
	return buf
}
