package sim

// Hierarchical timer wheel — the engine's scheduler (DESIGN.md §12). Every
// scheduled event gets an O(1) arm/cancel handle, so a superseded timer
// (an RTO re-armed on every ack) leaves the schedule instead of waiting
// out its timestamp as a no-op.
//
// Determinism contract: dispatch order is ascending (at, emit, tie, seq) —
// exactly a binary heap's over the same keys, which wheel_test.go holds it
// to on randomised schedules. The wheel only buckets events by time range;
// when dispatch reaches a level-0 slot, its events are sorted once by the
// full comparator into a run that then pops from the head.
//
// Layout (trex-emu's timer framework uses the same shape to sustain
// multi-MPPS event rates): wheelLevels levels of wheelSlots slots; a
// level-l slot spans 2^(wheelShift+l·wheelBits) ps. An event is filed at
// the lowest level whose slot still separates it from the cursor —
// equivalently the level of the highest bit in which its slot number
// differs from the cursor's, so a slot position never wraps past the
// cursor within a level. Advancing cascades one higher-level slot down
// whenever a level's aligned window is exhausted; each node cascades at
// most wheelLevels-1 times over its life.

import (
	"math/bits"
	"slices"

	"r2c2/internal/simtime"
	"r2c2/internal/topology"
)

const (
	wheelBits  = 8
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	// wheelShift sets the level-0 slot width: 2^16 ps ≈ 65.5 ns, the scale
	// of one hop (112.8 ns for a 16-byte packet at 10 Gbps, 1.3 µs for an
	// MTU one). A loaded slot then holds several events where a 16.4 ns
	// slot mostly held one or two, and each load's bitmap scan, list walk
	// and sort is paid once for all of them (the sweep of 2^14–2^18 in
	// DESIGN.md §12). The slot stays below the 100 ns propagation delay, so
	// a packet's arrival is never filed into the slot that sent it
	// (TestWheelGeometry).
	wheelShift = 16
	// wheelLevels covers the full simtime range: slot numbers are below
	// 2^(63-wheelShift), and the levels index wheelLevels·wheelBits bits of
	// slot number (6 levels of 8 bits at 2^16).
	wheelLevels = (63 - wheelShift + wheelBits - 1) / wheelBits
	// stageBlock is the block length sortRun insertion-sorts before merging:
	// BenchmarkStageSort's sweep over random-order runs (DESIGN.md §12).
	stageBlock = 12
)

// Sentinel values for timerNode.level.
const (
	freeLevel   int8 = -1 // on the arena free list
	stagedLevel int8 = -2 // in the current slot's run
)

// evDead marks a staged node whose timer was cancelled after staging: its
// entry cannot leave the middle of the run in O(1), so the node is
// tombstoned (kept only for its run position) and freed when it surfaces.
// This is transient — a node is only ever staged within one level-0 slot of
// firing.
const evDead eventKind = 0xff

// timerNode is one scheduled event in the wheel's node arena. Slot
// membership is an intrusive doubly-linked list (1-based indices, 0 = nil)
// so cancellation unlinks in O(1) without shifting neighbours.
type timerNode struct {
	ev         event
	next, prev int32 // 1-based arena links; 0 terminates
	level      int8  // wheel level, or freeLevel / stagedLevel
	slot       int16 // slot index while level >= 0
}

// timerHandle identifies one armed timer for O(1) cancellation. seq is the
// event's globally unique schedule sequence: a stale handle (the timer
// already fired, was cancelled, or its node was recycled) fails the seq
// check and cancel becomes a no-op, so holders never need to race their
// own expiry. The zero handle is inert.
type timerHandle struct {
	idx int32 // 1-based arena index; 0 = no timer
	seq uint64
}

// timerWheel is the hierarchical wheel. The zero value is ready to use:
// slot heads are only read when the matching occupancy bit is set, and all
// arena links are 1-based so zeroed memory reads as nil.
type timerWheel struct {
	nodes    []timerNode
	freeHead int32 // 1-based free-list head
	count    int   // live scheduled events (cancelled excluded)

	// cur is the level-0 slot number dispatch has reached: every event in
	// slots <= cur sits in the run, every filed event is ahead.
	cur int64

	head [wheelLevels][wheelSlots]uint32
	occ  [wheelLevels][wheelSlots / 64]uint64

	// staged[top:] is the run: the current level-0 slot's undispatched
	// events in ascending stageLess order, consumed by advancing top. spare
	// is sortRun's merge buffer, with the run's capacity.
	staged, spare []stagedEntry
	top           int
}

// stagedEntry is one element of the run: the node's 1-based arena index
// under a copy of its event's ordering keys. The keys are duplicated so that
// sorting compares within the run's own contiguous memory: a lock-step flood
// stages ~100 events on one timestamp, and ordering them through the arena
// cost a scattered 64-byte node load per comparison.
type stagedEntry struct {
	at, emit simtime.Time
	seq      uint64
	tie      uint32
	idx      int32
}

// grow extends the arena by at least 64 nodes (doubling past that) and
// threads the new tail onto the free list: arming the first N timers costs
// O(log N) slice growths instead of one append per node, and a steady-state
// schedule recycles nodes without ever growing again.
func (w *timerWheel) grow() {
	old := len(w.nodes)
	n := old
	if n < 64 {
		n = 64
	}
	w.nodes = append(w.nodes, make([]timerNode, n)...)
	for i := len(w.nodes); i > old; i-- {
		w.nodes[i-1] = timerNode{next: w.freeHead, level: freeLevel}
		w.freeHead = int32(i)
	}
}

// free zeroes a node (dropping its packet/closure reference) and returns it
// to the free list.
func (w *timerWheel) free(idx int32) {
	n := &w.nodes[idx-1]
	*n = timerNode{next: w.freeHead, level: freeLevel}
	w.freeHead = idx
}

// arm files an event, writing its record field by field into a node taken
// off the free list (the arena grows by a chunk when it runs dry), and
// returns the node's index.
func (w *timerWheel) arm(at, emit simtime.Time, seq uint64, tk uint32, node topology.NodeID, recv any) int32 {
	if w.freeHead == 0 {
		w.grow()
	}
	idx := w.freeHead
	n := &w.nodes[idx-1]
	w.freeHead = n.next
	n.ev.at, n.ev.emit, n.ev.seq = at, emit, seq
	n.ev.node, n.ev.tk, n.ev.recv = node, tk, recv
	w.place(idx, n)
	if n.level == stagedLevel {
		w.settleLast() // armed into the slot being drained
	}
	w.count++
	return idx
}

// place files a node relative to the current cursor: appended to the run
// (unsorted) when its slot has already been reached, else at the lowest
// wheel level whose slot number still differs from the cursor's.
func (w *timerWheel) place(idx int32, n *timerNode) {
	s0 := int64(n.ev.at) >> wheelShift
	if s0 <= w.cur {
		w.stage(idx, n)
		return
	}
	// Highest differing bit picks the level, so the slot position is
	// always strictly ahead of the cursor's position at that level and
	// never wraps — the invariant advance() relies on.
	l := (bits.Len64(uint64(s0^w.cur)) - 1) / wheelBits
	slot := int16((s0 >> (uint(l) * wheelBits)) & wheelMask)
	n.level, n.slot = int8(l), slot
	n.prev = 0
	word, bit := int(slot)>>6, uint(slot)&63
	if w.occ[l][word]&(1<<bit) != 0 {
		old := int32(w.head[l][slot])
		n.next = old
		w.nodes[old-1].prev = idx
	} else {
		n.next = 0
		w.occ[l][word] |= 1 << bit
	}
	w.head[l][slot] = uint32(idx)
}

// unlink removes a filed node from its slot list in O(1).
func (w *timerWheel) unlink(idx int32, n *timerNode) {
	if n.prev != 0 {
		w.nodes[n.prev-1].next = n.next
	} else {
		w.head[n.level][n.slot] = uint32(n.next)
		if n.next == 0 {
			w.occ[n.level][int(n.slot)>>6] &^= 1 << (uint(n.slot) & 63)
		}
	}
	if n.next != 0 {
		w.nodes[n.next-1].prev = n.prev
	}
}

// cancel removes a scheduled event. Stale handles (fired, already
// cancelled, or recycled nodes) are detected by the seq check and ignored.
// Returns whether a live timer was removed.
func (w *timerWheel) cancel(h timerHandle) bool {
	if h.idx <= 0 || int(h.idx) > len(w.nodes) {
		return false
	}
	n := &w.nodes[h.idx-1]
	if n.level == freeLevel || n.ev.seq != h.seq || n.ev.kind() == evDead {
		return false
	}
	w.count--
	if n.level == stagedLevel {
		// Mid-run removal is not O(1); tombstone the node in place. Only
		// the ordering keys survive — the reference is dropped immediately.
		n.ev.tk = n.ev.tk&^0xff | uint32(evDead)
		n.ev.recv = nil
		return true
	}
	w.unlink(h.idx, n)
	w.free(h.idx)
	return true
}

// stageLess orders the run by (at, emit, tie, seq): the engine's dispatch
// order (see event). Slots bucket by timestamp range only, so refining the
// within-slot order is safe.
func stageLess(a, b *stagedEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.emit != b.emit {
		return a.emit < b.emit
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.seq < b.seq
}

// stage appends a node's entry to the run unsorted: advance sorts a loaded
// slot once (sortRun); arm settles one armed into it (settleLast).
func (w *timerWheel) stage(idx int32, n *timerNode) {
	n.level = stagedLevel
	if len(w.staged) == cap(w.staged) {
		w.growRun()
	}
	// Written field by field in place: a composite literal is built on the
	// stack and copied with 16-byte loads that cannot be forwarded from the
	// 8-byte stores that built it, stalling every staged event.
	w.staged = w.staged[:len(w.staged)+1]
	e := &w.staged[len(w.staged)-1]
	e.at, e.emit, e.seq, e.tie, e.idx = n.ev.at, n.ev.emit, n.ev.seq, n.ev.tie(), idx
}

// growRun makes room in a full run: a run at least half consumed drops its
// head, else run and spare double (64 at first). Capacity is kept across
// slots, so a wheel never staging over 64 events at once allocates once.
func (w *timerWheel) growRun() {
	if w.top > 0 && w.top >= len(w.staged)/2 {
		w.staged, w.top = w.staged[:copy(w.staged, w.staged[w.top:])], 0
		return
	}
	c := max(64, 2*cap(w.staged))
	buf := make([]stagedEntry, 2*c)
	w.staged, w.spare = buf[:copy(buf, w.staged):c], buf[c:c]
}

// settleLast moves the run's last entry, armed into the slot being drained,
// to its place: a binary search over the unconsumed run, then one copy.
func (w *timerWheel) settleLast() {
	last := len(w.staged) - 1
	e := w.staged[last]
	lo, hi := w.top, last
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); stageLess(&e, &w.staged[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	copy(w.staged[lo+1:], w.staged[lo:last])
	w.staged[lo] = e
}

// sortRun orders a freshly loaded slot: reversed into arm order (slot lists
// are LIFO), insertion-sorted in blocks of stageBlock, then merged bottom-up,
// run and spare trading places each pass. O(n log n), nothing allocated.
func (w *timerWheel) sortRun() {
	s := w.staged
	slices.Reverse(s)
	for lo := 0; lo < len(s); lo += stageBlock {
		insertionSort(s[lo:min(lo+stageBlock, len(s))])
	}
	dst := w.spare[:len(s)]
	for width := stageBlock; width < len(s); width *= 2 {
		for lo := 0; lo < len(s); lo += 2 * width {
			mid, hi := min(lo+width, len(s)), min(lo+2*width, len(s))
			mergeRuns(dst[lo:hi], s[lo:mid], s[mid:hi])
		}
		s, dst = dst, s
	}
	w.staged, w.spare = s, dst[:0]
}

// insertionSort sorts a block in place, shifting larger entries into a hole.
func insertionSort(s []stagedEntry) {
	for i := 1; i < len(s); i++ {
		e, j := s[i], i
		for ; j > 0 && stageLess(&e, &s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = e
	}
}

// mergeRuns merges the sorted runs a and b into dst, len(a)+len(b) long.
func mergeRuns(dst, a, b []stagedEntry) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if stageLess(&b[j], &a[i]) {
			dst[i+j], j = b[j], j+1
		} else {
			dst[i+j], i = a[i], i+1
		}
	}
	copy(dst[i+j:], a[i:])
	copy(dst[len(a)+j:], b[j:])
}

// stagePop consumes the run's head; a consumed run resets to empty.
func (w *timerWheel) stagePop() {
	w.top++
	if w.top == len(w.staged) {
		w.staged, w.top = w.staged[:0], 0
	}
}

// scanAbove returns the first occupied slot position strictly after pos at
// the given level (within the 256-slot array; positions after the cursor's
// never wrap by construction).
func (w *timerWheel) scanAbove(level, pos int) (int, bool) {
	word := (pos + 1) >> 6
	if word >= wheelSlots/64 {
		return 0, false
	}
	// Mask off positions <= pos in the first word.
	m := w.occ[level][word] &^ ((1 << (uint(pos+1) & 63)) - 1)
	if (pos+1)&63 == 0 {
		m = w.occ[level][word]
	}
	for {
		if m != 0 {
			return word<<6 + bits.TrailingZeros64(m), true
		}
		word++
		if word >= wheelSlots/64 {
			return 0, false
		}
		m = w.occ[level][word]
	}
}

// advance moves the cursor to the next slot holding events and loads it
// into the run. It returns false when the wheel holds nothing at all.
// Events at a level's current position were cascaded when the cursor got
// there, so only positions strictly ahead need scanning; when a level's
// aligned window is exhausted the next occupied higher-level slot is
// cascaded down and the scan restarts from level 0.
func (w *timerWheel) advance() bool {
	for {
		// Level 0: stage the next occupied slot of the current window.
		pos := int(w.cur & wheelMask)
		if p, ok := w.scanAbove(0, pos); ok {
			w.cur = (w.cur &^ wheelMask) | int64(p)
			idx := int32(w.head[0][p])
			w.head[0][p] = 0
			w.occ[0][p>>6] &^= 1 << (uint(p) & 63)
			for ; idx != 0; idx = w.nodes[idx-1].next {
				w.stage(idx, &w.nodes[idx-1])
			}
			w.sortRun()
			return true
		}
		// Window exhausted: cascade the next occupied slot of the lowest
		// level that still has one ahead.
		cascaded := false
		for l := 1; l < wheelLevels; l++ {
			posl := int((w.cur >> (uint(l) * wheelBits)) & wheelMask)
			p, ok := w.scanAbove(l, posl)
			if !ok {
				continue
			}
			shift := uint(l) * wheelBits
			base := (w.cur >> shift) &^ wheelMask
			// Jump the cursor to the start of the cascaded slot: every
			// lower level ahead of the old cursor was empty, and all other
			// events at level >= l live in later slots.
			w.cur = (base | int64(p)) << shift
			idx := int32(w.head[l][p])
			w.head[l][p] = 0
			w.occ[l][p>>6] &^= 1 << (uint(p) & 63)
			for idx != 0 {
				n := &w.nodes[idx-1]
				next := n.next
				w.place(idx, n)
				idx = next
			}
			cascaded = true
			break
		}
		if !cascaded {
			return false
		}
		if len(w.staged) > 0 {
			// Cascading landed events directly in the cursor's own slot.
			w.sortRun()
			return true
		}
	}
}

// peek returns the next event's node index without dispatching it, loading
// the next slot into the run if needed and freeing the cancelled tombstones
// it finds at the run's head. Returns 0 when the wheel is empty.
func (w *timerWheel) peek() int32 {
	for {
		if w.top < len(w.staged) {
			idx := w.staged[w.top].idx
			if w.nodes[idx-1].ev.kind() != evDead {
				return idx
			}
			w.stagePop()
			w.free(idx)
			continue
		}
		if !w.advance() {
			return 0
		}
	}
}

// take removes the event peek just surfaced (idx is peek's result) and
// returns its record — the one copy an event's life makes. The node is
// freed before the event runs, so whatever it schedules can reuse it.
func (w *timerWheel) take(idx int32) event {
	w.stagePop()
	ev := w.nodes[idx-1].ev
	w.free(idx)
	w.count--
	return ev
}

// peekAt returns the timestamp of the next live event (and whether one
// exists).
func (w *timerWheel) peekAt() (simtime.Time, bool) {
	idx := w.peek()
	if idx == 0 {
		return 0, false
	}
	return w.nodes[idx-1].ev.at, true
}
