package core

import (
	"cmp"
	"fmt"
	"slices"

	"r2c2/internal/routing"
	"r2c2/internal/wire"
)

// Visibility holds the views (§3.1) of the nodes an instance owns, its
// columns, per flow: a flood writes one row, whose cell per column holds the
// flow absent, finished, or live with one of its announced values. A start
// reaching a finished cell is late (§3.2) and ignored. Once every column
// holds the finish the row is recycled, leaving a tombstone bit, which every
// start or finish half the 16-bit sequence space away clears. The simulator
// gives an R2C2 instance one, the emulator each node a one-column one under
// its lock.
type Visibility struct {
	index  table[int32] // the open rows
	tomb   [][]uint64   // tomb[src] has bit seq set once flow (src, seq) retired
	owned  int32
	free   int32 // the first free row, -1 if none; rows chain through visRow.next
	rows   []visRow
	cells  []uint16 // row i's cells are cells[i*owned:][:owned]
	digest []uint64 // per column: XOR of FlowDigest over its live values, its View.Hash
	live   []int32  // per column: live values
}

// cellFinished is the cell value of a held finish; 0 is absent, and 2 and
// up name the row's announced values.
const cellFinished uint16 = 1

type visRow struct {
	id      wire.FlowID // kept here: a row can retire before any column holds an entry
	done    int32       // columns holding the finish
	next    int32       // the next free row, while free
	entries []visEntry  // the flow's distinct announced values; cell 2+k names entries[k]
}

type visEntry struct {
	info   FlowInfo
	digest uint64 // FlowDigest(info)
}

// NewVisibility returns an empty Visibility of owned columns.
func NewVisibility(owned int) Visibility {
	return Visibility{owned: int32(owned), index: newTable[int32](), free: -1,
		digest: make([]uint64, owned), live: make([]int32, owned)}
}

// openRow returns the flow's row, opening one unless the flow retired (-1).
// Late or not, it first clears the tombstone half the sequence space away,
// so the source's wrapped-around sequence number starts clean.
func (v *Visibility) openRow(id wire.FlowID) int32 {
	if w, bit := v.tombBit(id ^ 0x8000); w != nil {
		*w &^= bit
	}
	if i, ok := v.index.get(id); ok {
		return i
	}
	if v.Retired(id) {
		return -1
	}
	i := v.free
	if i >= 0 {
		v.free = v.rows[i].next
	} else {
		i = int32(len(v.rows))
		v.rows = append(v.rows, visRow{})
		v.cells = append(v.cells, make([]uint16, v.owned)...)
	}
	v.rows[i].id = id
	row, _ := v.index.put(id)
	*row = i
	return i
}

// tombBit returns a flow's tombstone word, nil past its source's bit row,
// and its bit.
func (v *Visibility) tombBit(id wire.FlowID) (*uint64, uint64) {
	if src, w := int(id.Src()), int(id.Seq()>>6); src < len(v.tomb) && w < len(v.tomb[src]) {
		return &v.tomb[src][w], 1 << (id.Seq() & 63)
	}
	return nil, 0
}

func (v *Visibility) cell(col int, i int32) *uint16 { return &v.cells[int(i)*int(v.owned)+col] }

// entryOf returns the cell value naming info in row i, adding the entry if
// it is new to the flow.
func (v *Visibility) entryOf(i int32, info FlowInfo) uint16 {
	rw := &v.rows[i]
	for k := len(rw.entries) - 1; k >= 0; k-- {
		if rw.entries[k].info == info {
			return uint16(k) + 2
		}
	}
	if len(rw.entries) == 1<<16-2 {
		panic(fmt.Sprintf("core: flow %v announced more distinct values than a visibility cell can name", rw.id))
	}
	rw.entries = append(rw.entries, visEntry{info, FlowDigest(info)})
	return uint16(len(rw.entries)) + 1
}

// set makes column col hold c of row i, keeping the counts and digests, and
// retires the row once every column holds the flow's finish.
func (v *Visibility) set(col int, i int32, c uint16) {
	rw, cell := &v.rows[i], v.cell(col, i)
	switch old := *cell; {
	case old == cellFinished:
		rw.done--
	case old != 0:
		v.digest[col] ^= rw.entries[old-2].digest
		v.live[col]--
	}
	*cell = c
	switch {
	case c == cellFinished:
		if rw.done++; rw.done == v.owned { // retire the row, leaving its tombstone
			src, w := int(rw.id.Src()), int(rw.id.Seq()>>6)
			v.tomb = append(v.tomb, make([][]uint64, max(0, src+1-len(v.tomb)))...)
			v.tomb[src] = append(v.tomb[src], make([]uint64, max(0, w+1-len(v.tomb[src])))...)
			v.tomb[src][w] |= 1 << (rw.id.Seq() & 63)
			v.release(i)
		}
	case c != 0:
		v.digest[col] ^= rw.entries[c-2].digest
		v.live[col]++
	}
}

// release drops row i from the index and puts it, zeroed, on the free list.
func (v *Visibility) release(i int32) {
	rw := &v.rows[i]
	s, _ := v.index.find(rw.id)
	v.index.drop(s)
	clear(v.cells[int(i)*int(v.owned):][:v.owned])
	rw.entries, rw.done, rw.next, v.free = rw.entries[:0], 0, v.free, i
}

// Apply folds a flooded event of a kind wire.DecodeBroadcast accepts into
// column col by View.Apply's rule, except that a finish is held as finished.
func (v *Visibility) Apply(col int, b *wire.Broadcast) {
	switch b.Event {
	case wire.EventFlowStart:
		v.Hold(col, BroadcastInfo(b))
	case wire.EventFlowFinish:
		v.Finish(col, b.Flow())
	case wire.EventDemandUpdate, wire.EventRouteChange:
		i, ok := v.index.get(b.Flow())
		if !ok || *v.cell(col, i) <= cellFinished {
			return // an update racing a finish, or ahead of the start
		}
		info := v.rows[i].entries[*v.cell(col, i)-2].info
		if b.Event == wire.EventDemandUpdate {
			info.DemandKbps = b.DemandKbps
		} else {
			info.Protocol = routing.Protocol(b.RP)
		}
		v.set(col, i, v.entryOf(i, info))
	default:
		panic(fmt.Sprintf("core: unknown broadcast event %v", b.Event))
	}
}

// Hold makes column col hold info live, as a start does: the origin's own
// add or update, applied before it broadcasts (§3.1).
func (v *Visibility) Hold(col int, info FlowInfo) {
	if i := v.openRow(info.ID); i >= 0 && *v.cell(col, i) != cellFinished {
		v.set(col, i, v.entryOf(i, info))
	}
}

// Finish makes column col hold the flow's finish. Like a start, it takes the
// flow's turn in the sequence space, so a flow whose start never floods (the
// emulator's abandoned at birth) still clears the tombstone before it.
func (v *Visibility) Finish(col int, id wire.FlowID) {
	if i := v.openRow(id); i >= 0 {
		v.set(col, i, cellFinished)
	}
}

// Purge drops every flow with a dead endpoint from every column as
// View.RemoveFlow would, and frees each such row no column holds finished.
func (v *Visibility) Purge(dead []bool) {
	for i := range v.rows {
		rw := &v.rows[i]
		if len(rw.entries) == 0 || !dead[rw.entries[0].info.Src] && !dead[rw.entries[0].info.Dst] {
			continue
		}
		for col := range int(v.owned) {
			if *v.cell(col, int32(i)) > cellFinished {
				v.set(col, int32(i), 0)
			}
		}
		if rw.done == 0 {
			v.release(int32(i))
		}
	}
}

// AppendFlows appends column col's live flows to buf, sorted by flow ID.
func (v *Visibility) AppendFlows(buf []FlowInfo, col int) []FlowInfo {
	for i := range v.rows {
		if c := *v.cell(col, int32(i)); c > cellFinished {
			buf = append(buf, v.rows[i].entries[c-2].info)
		}
	}
	slices.SortFunc(buf, func(a, b FlowInfo) int { return cmp.Compare(a.ID, b.ID) })
	return buf
}

// Digest returns the Hash a View of column col's live flows would report.
func (v *Visibility) Digest(col int) uint64 { return v.digest[col] }

// Len returns how many flows column col holds live.
func (v *Visibility) Len(col int) int { return int(v.live[col]) }

// Get returns column col's live entry for a flow.
func (v *Visibility) Get(col int, id wire.FlowID) (FlowInfo, bool) {
	if i, ok := v.index.get(id); ok && *v.cell(col, i) > cellFinished {
		return v.rows[i].entries[*v.cell(col, i)-2].info, true
	}
	return FlowInfo{}, false
}

// Retired reports whether a flow's row retired, leaving its tombstone.
func (v *Visibility) Retired(id wire.FlowID) bool {
	w, bit := v.tombBit(id)
	return w != nil && *w&bit != 0
}

// Rows returns how many rows are open and how many the slab holds.
func (v *Visibility) Rows() (open, slab int) { return v.index.n, len(v.rows) }
