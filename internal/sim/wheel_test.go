package sim

import (
	"container/heap"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"r2c2/internal/simtime"
)

// armAt files a bare event (no tie, no receiver) straight into a timerWheel.
func armAt(w *timerWheel, at simtime.Time, seq uint64) timerHandle {
	return timerHandle{idx: w.arm(at, 0, seq, 0, 0, nil), seq: seq}
}

// popNext removes and returns the wheel's next event (it must have one).
func popNext(w *timerWheel) event { return w.take(w.peek()) }

// drainWheel empties the wheel, recording dispatch order.
func drainWheel(w *timerWheel) []event {
	var out []event
	for w.peek() != 0 {
		out = append(out, popNext(w))
	}
	return out
}

func TestWheelOrdersLikeHeap(t *testing.T) {
	// A deterministic LCG stream with deliberate timestamp collisions,
	// spanning several wheel levels (delays up to ~2^40 ps ≈ 1.1 s).
	var w timerWheel
	type key struct {
		at  simtime.Time
		seq uint64
	}
	var want []key
	rng := uint64(12345)
	var seq uint64
	for i := 0; i < 5000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		at := simtime.Time(rng % (1 << 40))
		if i%7 == 0 {
			at = simtime.Time(rng % 64) // force same-slot collisions
		}
		armAt(&w, at, seq)
		want = append(want, key{at, seq})
		seq++
	}
	// Expected order: ascending (at, seq) — the heap comparator.
	for i := 1; i < len(want); i++ {
		for j := i; j > 0 && (want[j].at < want[j-1].at || (want[j].at == want[j-1].at && want[j].seq < want[j-1].seq)); j-- {
			want[j], want[j-1] = want[j-1], want[j]
		}
	}
	got := drainWheel(&w)
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].at != want[i].at || got[i].seq != want[i].seq {
			t.Fatalf("event %d: got (at=%d seq=%d), want (at=%d seq=%d)",
				i, got[i].at, got[i].seq, want[i].at, want[i].seq)
		}
	}
	if w.count != 0 {
		t.Fatalf("count = %d after drain, want 0", w.count)
	}
}

func TestWheelInterleavedScheduleAndPop(t *testing.T) {
	// Scheduling between pops must keep global (at, seq) order for events
	// not yet dispatched — including events landing in the current slot.
	var w timerWheel
	var seq uint64
	sched := func(at simtime.Time) {
		armAt(&w, at, seq)
		seq++
	}
	sched(100 << wheelShift)
	sched(50 << wheelShift)
	if ev := w.nodes[w.peek()-1].ev; ev.at != 50<<wheelShift {
		t.Fatalf("peek at=%d, want %d", ev.at, simtime.Time(50)<<wheelShift)
	}
	got := popNext(&w)
	if got.at != 50<<wheelShift {
		t.Fatalf("pop at=%d, want %d", got.at, simtime.Time(50)<<wheelShift)
	}
	// Now the cursor is at slot 50. Schedule into the same slot (staged
	// directly) and into a later slot; same-slot event fires first.
	sched(50<<wheelShift + 1)
	sched(60 << wheelShift)
	if got := popNext(&w); got.at != 50<<wheelShift+1 {
		t.Fatalf("pop at=%d, want same-slot event first", got.at)
	}
	if got := popNext(&w); got.at != 60<<wheelShift {
		t.Fatalf("pop at=%d, want 60<<shift", got.at)
	}
	if got := popNext(&w); got.at != 100<<wheelShift {
		t.Fatalf("pop at=%d, want 100<<shift", got.at)
	}
}

func TestWheelCancel(t *testing.T) {
	var w timerWheel
	h1 := armAt(&w, 1<<30, 0)
	h2 := armAt(&w, 2<<30, 1)
	h3 := armAt(&w, 3<<30, 2)
	if !w.cancel(h2) {
		t.Fatal("cancel of live filed timer returned false")
	}
	if w.cancel(h2) {
		t.Fatal("double cancel returned true")
	}
	if w.count != 2 {
		t.Fatalf("count = %d, want 2", w.count)
	}
	got := drainWheel(&w)
	if len(got) != 2 || got[0].seq != 0 || got[1].seq != 2 {
		t.Fatalf("drained %v, want seqs [0 2]", got)
	}
	// Stale handles after firing must be rejected (node was recycled).
	if w.cancel(h1) || w.cancel(h3) {
		t.Fatal("cancel of already-fired timer returned true")
	}
}

func TestWheelCancelStaged(t *testing.T) {
	// Cancelling an event that is already staged in the current slot
	// tombstones it; it must neither fire nor break heap order.
	var w timerWheel
	armAt(&w, 10, 0)
	h := armAt(&w, 11, 1)
	armAt(&w, 12, 2)
	if w.peek() == 0 {
		t.Fatal("peek returned empty wheel")
	}
	// All three now staged (same level-0 slot). Cancel the middle one.
	if !w.cancel(h) {
		t.Fatal("cancel of staged timer returned false")
	}
	if w.count != 2 {
		t.Fatalf("count = %d, want 2", w.count)
	}
	got := drainWheel(&w)
	if len(got) != 2 || got[0].seq != 0 || got[1].seq != 2 {
		t.Fatalf("drained seqs %v, want [0 2]", got)
	}
}

func TestWheelCancelRecycledNode(t *testing.T) {
	// A handle whose node was freed and recycled for a new timer must not
	// cancel the new occupant: the seq check rejects it.
	var w timerWheel
	h := armAt(&w, 5, 0)
	drainWheel(&w)
	armAt(&w, 7, 1) // reuses the freed node
	if w.cancel(h) {
		t.Fatal("stale handle cancelled the node's new occupant")
	}
	if w.count != 1 {
		t.Fatalf("count = %d, want 1", w.count)
	}
}

func TestWheelFarFutureCascade(t *testing.T) {
	// Events at the extreme ends of the simtime range must cascade down
	// without loss. Max slot number is 2^49; exercise every level.
	var w timerWheel
	ats := []simtime.Time{
		1,
		1 << wheelShift,
		1 << (wheelShift + wheelBits),
		1 << (wheelShift + 3*wheelBits),
		1<<62 - 1,
		1 << 62,
	}
	for i, at := range ats {
		armAt(&w, at, uint64(i))
	}
	got := drainWheel(&w)
	if len(got) != len(ats) {
		t.Fatalf("drained %d, want %d", len(got), len(ats))
	}
	for i, ev := range got {
		if ev.at != ats[i] {
			t.Fatalf("event %d: at=%d, want %d", i, ev.at, ats[i])
		}
	}
}

func TestWheelLevelPlacementInvariant(t *testing.T) {
	// The aligned-window level choice must always place a node at a slot
	// position strictly above the cursor's position at that level — the
	// invariant advance() relies on to scan only forward.
	curs := []int64{0, 1, 255, 256, 0x12345, 1 << 40, (1 << 49) - 2}
	deltas := []int64{1, 2, 255, 256, 257, 1 << 16, 1<<24 + 5, 1 << 48}
	for _, cur := range curs {
		for _, d := range deltas {
			s0 := cur + d
			if s0 >= 1<<49 {
				continue
			}
			l := (bits.Len64(uint64(s0^cur)) - 1) / wheelBits
			if l >= wheelLevels {
				t.Fatalf("cur=%d s0=%d: level %d out of range", cur, s0, l)
			}
			slotPos := (s0 >> (uint(l) * wheelBits)) & wheelMask
			curPos := (cur >> (uint(l) * wheelBits)) & wheelMask
			if slotPos <= curPos {
				t.Fatalf("cur=%d s0=%d level=%d: slot pos %d not above cursor pos %d",
					cur, s0, l, slotPos, curPos)
			}
		}
	}
}

func TestAfterOverflowPanics(t *testing.T) {
	// Satellite: e.now + delay used to wrap negative unchecked, tripping
	// the misleading scheduled-in-the-past panic (or, with the past check
	// gone, corrupting event order). It must panic explicitly.
	eng := &Engine{}
	eng.Schedule(100, func() {})
	eng.Run(100) // advance the clock so now+delay can overflow
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overflowing After did not panic")
		}
		if s, ok := r.(string); !ok || s != "sim: delay overflows simulated time" {
			t.Fatalf("panic = %v, want explicit overflow message", r)
		}
	}()
	eng.After(simtime.Time(math.MaxInt64-50), func() {})
}

// refHeap is the reference scheduler the wheel is held to: a plain binary
// min-heap over the engine's dispatch keys (at, emit, tie, seq), the order
// container/heap gives with no wheel, no staging and no cancellation
// shortcuts — a cancelled event is found by its seq and removed.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.emit != b.emit {
		return a.emit < b.emit
	}
	if a.tie() != b.tie() {
		return a.tie() < b.tie()
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// TestWheelMatchesReferenceHeap drives the wheel and the reference heap with
// one randomised schedule — arms, cancels (of filed, staged, fired and
// already-cancelled timers) and pops interleaved, timestamps spanning
// several wheel levels, and every key drawn from a handful of values so that
// ties on at, on (at, emit) and on (at, emit, tie) are all common — and
// requires the same event out of both at every pop. A second, flood-shaped
// schedule then puts everything on one timestamp.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(trial))
		var w timerWheel
		var ref refHeap
		var handles []timerHandle
		now, seq := simtime.Time(0), uint64(0)
		pop := func() {
			got, want := popNext(&w), heap.Pop(&ref).(event)
			if got != want {
				t.Fatalf("trial %d: wheel popped (at %d emit %d tie %d seq %d), reference heap (at %d emit %d tie %d seq %d)",
					trial, got.at, got.emit, got.tie(), got.seq, want.at, want.emit, want.tie(), want.seq)
			}
			now = got.at
		}
		for step := 0; step < 4000; step++ {
			switch r := rng.Intn(10); {
			case r < 6: // arm
				at := now + simtime.Time(rng.Intn(4))<<uint(rng.Intn(34))
				if rng.Intn(3) == 0 {
					at = now + simtime.Time(rng.Intn(3)) // same slot, often the same picosecond
				}
				emit := simtime.Time(rng.Intn(3))
				tk := uint32(rng.Intn(3))<<8 | uint32(evArrive)
				idx := w.arm(at, emit, seq, tk, 0, nil)
				heap.Push(&ref, event{at: at, emit: emit, seq: seq, tk: tk})
				handles = append(handles, timerHandle{idx: idx, seq: seq})
				seq++
			case r < 8: // cancel any handle ever issued
				if len(handles) == 0 {
					continue
				}
				h := handles[rng.Intn(len(handles))]
				live := -1
				for i := range ref {
					if ref[i].seq == h.seq {
						live = i
					}
				}
				if w.cancel(h) != (live >= 0) {
					t.Fatalf("trial %d: cancel of seq %d returned %v, reference says live=%v", trial, h.seq, live < 0, live >= 0)
				}
				if live >= 0 {
					heap.Remove(&ref, live)
				}
			default:
				if len(ref) > 0 {
					pop()
				}
			}
			if w.count != len(ref) {
				t.Fatalf("trial %d: wheel holds %d live events, reference %d", trial, w.count, len(ref))
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if w.peek() != 0 {
			t.Fatalf("trial %d: wheel still holds events after the reference drained", trial)
		}
	}

	// Flood shape: a lock-step broadcast lands hundreds of arrivals on one
	// timestamp, so the staging heap holds them all at once and every
	// comparison falls through at — to emit, to the tie key, to seq. A fifth
	// are cancelled after staging (tombstoned mid-heap), and more arrive on
	// the same timestamp while the slot drains.
	rng := rand.New(rand.NewSource(99))
	var w timerWheel
	var ref refHeap
	var handles []timerHandle
	at, seq := simtime.Time(7)<<wheelShift+3, uint64(0)
	arm := func() {
		emit, tk := simtime.Time(rng.Intn(3)), uint32(rng.Intn(4))<<8|uint32(evArrive)
		handles = append(handles, timerHandle{idx: w.arm(at, emit, seq, tk, 0, nil), seq: seq})
		heap.Push(&ref, event{at: at, emit: emit, seq: seq, tk: tk})
		seq++
	}
	for i := 0; i < 320; i++ {
		arm()
	}
	if w.peek() == 0 || len(w.staged) != 320 {
		t.Fatalf("flood: %d events staged after peek, want all 320", len(w.staged))
	}
	for i, h := range handles {
		if i%5 != 0 {
			continue
		}
		if !w.cancel(h) {
			t.Fatalf("flood: cancel of staged seq %d failed", h.seq)
		}
		for j := range ref {
			if ref[j].seq == h.seq {
				heap.Remove(&ref, j)
				break
			}
		}
	}
	for len(ref) > 0 {
		if got, want := popNext(&w), heap.Pop(&ref).(event); got != want {
			t.Fatalf("flood: wheel popped (emit %d tie %d seq %d), reference heap (emit %d tie %d seq %d)",
				got.emit, got.tie(), got.seq, want.emit, want.tie(), want.seq)
		}
		if seq < 400 {
			arm() // lands in the slot being drained: staged directly
		}
	}
	if w.peek() != 0 || w.count != 0 {
		t.Fatalf("flood: wheel still holds %d events after the reference drained", w.count)
	}
}
