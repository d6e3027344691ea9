package sim

import (
	"container/heap"
	"fmt"
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

func TestWheelFarFutureCascade(t *testing.T) {
	// Events at the extreme ends of the simtime range must cascade down
	// without loss. Slot numbers reach 2^(63-wheelShift); exercise every
	// level.
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
	const slots = int64(1) << (63 - wheelShift) // slot numbers of 63-bit time
	curs := []int64{0, 1, 255, 256, 0x12345, 1 << 40, slots - 2}
	deltas := []int64{1, 2, 255, 256, 257, 1 << 16, 1<<24 + 5, slots / 2, slots - 1}
	for _, cur := range curs {
		for _, d := range deltas {
			s0 := cur + d
			if s0 >= slots {
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

// TestWheelGeometry pins the wheel's shape to the fabric's: a level-0 slot
// narrower than the default propagation delay, so that an arrival is never
// filed into the slot its transmission began in, and just enough levels to
// index every slot number of 63-bit time.
func TestWheelGeometry(t *testing.T) {
	var cfg NetConfig
	cfg.defaults()
	if slot := simtime.Time(1) << wheelShift; slot >= cfg.PropDelay {
		t.Errorf("level-0 slot %d ps is not below the default propagation delay %d ps", slot, cfg.PropDelay)
	}
	if wheelShift+wheelLevels*wheelBits < 63 {
		t.Errorf("%d levels of %d bits above a %d-bit slot do not cover 63-bit time", wheelLevels, wheelBits, wheelShift)
	}
	if wheelShift+(wheelLevels-1)*wheelBits >= 63 {
		t.Errorf("%d levels: one fewer would still cover 63-bit time", wheelLevels)
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

// wheelVsRef drives a timerWheel and the reference heap in lock step: every
// arm and cancel goes to both, and every pop must return the same event.
type wheelVsRef struct {
	t       *testing.T
	name    string
	w       timerWheel
	ref     refHeap
	handles []timerHandle
	seq     uint64
	now     simtime.Time // the last popped event's timestamp
}

func (d *wheelVsRef) arm(at, emit simtime.Time, tie uint32) timerHandle {
	tk := tie<<8 | uint32(evArrive)
	h := timerHandle{idx: d.w.arm(at, emit, d.seq, tk, 0, nil), seq: d.seq}
	heap.Push(&d.ref, event{at: at, emit: emit, seq: d.seq, tk: tk})
	d.handles = append(d.handles, h)
	d.seq++
	return h
}

// cancel cancels any handle ever issued: filed, staged, fired or already
// cancelled. The reference finds the event by its seq.
func (d *wheelVsRef) cancel(h timerHandle) {
	live := -1
	for i := range d.ref {
		if d.ref[i].seq == h.seq {
			live = i
		}
	}
	if d.w.cancel(h) != (live >= 0) {
		d.t.Fatalf("%s: cancel of seq %d returned %v, reference says live=%v", d.name, h.seq, live < 0, live >= 0)
	}
	if live >= 0 {
		heap.Remove(&d.ref, live)
	}
}

func (d *wheelVsRef) pop() {
	got, want := popNext(&d.w), heap.Pop(&d.ref).(event)
	if got != want {
		d.t.Fatalf("%s: wheel popped (at %d emit %d tie %d seq %d), reference heap (at %d emit %d tie %d seq %d)",
			d.name, got.at, got.emit, got.tie(), got.seq, want.at, want.emit, want.tie(), want.seq)
	}
	d.now = got.at
}

func (d *wheelVsRef) drain() {
	for len(d.ref) > 0 {
		d.pop()
	}
	if d.w.peek() != 0 || d.w.count != 0 {
		d.t.Fatalf("%s: wheel still holds %d events after the reference drained", d.name, d.w.count)
	}
}

// TestWheelMatchesReferenceHeap drives the wheel and the reference heap with
// one randomised schedule — arms, cancels (of filed, staged, fired and
// already-cancelled timers) and pops interleaved, timestamps spanning
// several wheel levels, and every key drawn from a handful of values so that
// ties on at, on (at, emit) and on (at, emit, tie) are all common — and
// requires the same event out of both at every pop. Shaped schedules follow:
// a flood on one timestamp, crowded slots that run every merge width, a
// cascade into the cursor's own slot, and a slot armed into while it drains.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(trial))
		d := &wheelVsRef{t: t, name: fmt.Sprintf("trial %d", trial)}
		for step := 0; step < 4000; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				at := d.now + simtime.Time(rng.Intn(4))<<uint(rng.Intn(34))
				if rng.Intn(3) == 0 {
					at = d.now + simtime.Time(rng.Intn(3)) // same slot, often the same picosecond
				}
				d.arm(at, simtime.Time(rng.Intn(3)), uint32(rng.Intn(3)))
			case r < 8:
				if len(d.handles) > 0 {
					d.cancel(d.handles[rng.Intn(len(d.handles))])
				}
			default:
				if len(d.ref) > 0 {
					d.pop()
				}
			}
			if d.w.count != len(d.ref) {
				t.Fatalf("trial %d: wheel holds %d live events, reference %d", trial, d.w.count, len(d.ref))
			}
		}
		d.drain()
	}

	// Flood shape: a lock-step broadcast lands hundreds of arrivals on one
	// timestamp, so the run holds them all at once and every comparison falls
	// through at — to emit, to the tie key, to seq. A fifth are cancelled
	// after staging (tombstoned mid-run), and more arrive on the same
	// timestamp while the slot drains.
	rng := rand.New(rand.NewSource(99))
	d := &wheelVsRef{t: t, name: "flood"}
	at := simtime.Time(7)<<wheelShift + 3
	for i := 0; i < 320; i++ {
		d.arm(at, simtime.Time(rng.Intn(3)), uint32(rng.Intn(4)))
	}
	if d.w.peek() == 0 || len(d.w.staged) != 320 {
		t.Fatalf("flood: %d events staged after peek, want all 320", len(d.w.staged))
	}
	for i := 0; i < 320; i += 5 {
		d.cancel(d.handles[i])
	}
	for len(d.ref) > 0 {
		d.pop()
		if d.seq < 400 {
			d.arm(at, simtime.Time(rng.Intn(3)), uint32(rng.Intn(4))) // staged directly
		}
	}
	d.drain()

	// Crowded slots: thousands of events spread over one slot's 2^wheelShift ps,
	// armed in descending key order, so every block reaches sortRun reversed
	// and every merge width runs, a ragged last block included.
	for _, n := range []int{3001, 4096} {
		d := &wheelVsRef{t: t, name: fmt.Sprintf("crowded %d", n)}
		base := simtime.Time(9) << wheelShift
		for i := 0; i < n; i++ {
			d.arm(base+simtime.Time((n-1-i)*(1<<wheelShift)/n), 0, 0)
		}
		if d.w.peek(); len(d.w.staged) != n {
			t.Fatalf("%s: %d events staged, want %d", d.name, len(d.w.staged), n)
		}
		d.drain()
	}

	// Cascade into the cursor's own slot: events filed at level 1 whose
	// level-0 slot is the first of the cascaded window are staged by the
	// cascade itself, not by a level-0 load.
	rng = rand.New(rand.NewSource(7))
	d = &wheelVsRef{t: t, name: "cascade"}
	first := simtime.Time(wheelSlots) << wheelShift // level-0 slot 256: level 1, position 1
	for i := 0; i < 300; i++ {
		at := first + simtime.Time(rng.Intn(1<<wheelShift))
		if i%3 == 0 {
			at += simtime.Time(1+rng.Intn(8)) << wheelShift // later slots of the same window
		}
		d.arm(at, simtime.Time(rng.Intn(3)), uint32(rng.Intn(3)))
	}
	if d.w.peek(); len(d.w.staged) < 100 || d.w.cur != wheelSlots {
		t.Fatalf("cascade: %d events staged at slot %d, want >= 100 at slot %d", len(d.w.staged), d.w.cur, wheelSlots)
	}
	d.drain()

	// Arming into the slot while it drains: one event per pop keeps the run's
	// length steady while its head advances (the consumed head is reclaimed),
	// two per pop outgrow the run's capacity mid-slot, and every seventh
	// staged event and every fifth new one is cancelled.
	rng = rand.New(rand.NewSource(3))
	d = &wheelVsRef{t: t, name: "drain-arm"}
	base := simtime.Time(11) << wheelShift
	end := base + 1<<wheelShift - 1
	d.now = base
	inSlot := func() {
		h := d.arm(d.now+simtime.Time(rng.Int63n(int64(end-d.now)+1)), simtime.Time(rng.Intn(3)), uint32(rng.Intn(3)))
		if h.seq%5 == 0 {
			d.cancel(h)
		}
	}
	for i := 0; i < 60; i++ {
		inSlot()
	}
	d.w.peek()
	for i := 0; i < 60; i += 7 {
		d.cancel(d.handles[i])
	}
	for i := 0; i < 600 && len(d.ref) > 0; i++ {
		d.pop()
		for k := 0; k <= i/300; k++ {
			inSlot()
		}
		if int64(d.w.cur) != int64(base>>wheelShift) {
			t.Fatalf("drain-arm: left slot %d for %d with the slot still arming", base>>wheelShift, d.w.cur)
		}
	}
	d.drain()
}

// FuzzWheelOrder decodes arbitrary bytes into wheel operations — two bytes
// an operation: arm, cancel or pop — and holds the wheel to the reference
// heap. Arm delays come from a small set and emit and tie keys from four
// values each, so slots crowd and ties reach every depth of the comparator.
// The delays are relative to the slot (same picosecond, same slot, the next
// slot, levels 1 and 2) and the fabric's own at 10 Gbps: an ack's
// serialisation (12.8 ns), propagation (100 ns), both together (112.8 ns)
// and an MTU serialisation (1.2 µs). Bit 2 of an arm's first byte selects
// the fabric's delays.
func FuzzWheelOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 0, 3, 0, 3, 0})                   // three arms on one instant, three pops
	f.Add([]byte{0, 0x45, 0, 0x46, 0, 0x47, 1, 1, 2, 0, 3, 0, 3, 0})    // one slot, a staged cancel, pops
	f.Add([]byte{0, 6, 0, 7, 0, 5, 3, 0, 0, 1, 0, 2, 3, 0, 2, 3, 3, 0}) // levels 1 and 2, arms while draining
	f.Add([]byte{4, 0, 4, 0x08, 3, 0, 4, 0x20, 4, 0, 3, 0, 3, 0, 3, 0}) // 12.8 ns: acks back to back
	f.Add([]byte{4, 1, 4, 0x09, 4, 0x21, 3, 0, 4, 1, 3, 0, 3, 0, 3, 0}) // 100 ns: one propagation
	f.Add([]byte{4, 2, 0, 0, 3, 0, 4, 0x0a, 4, 2, 3, 0, 3, 0, 3, 0})    // 112.8 ns: one hop
	f.Add([]byte{4, 3, 4, 2, 4, 3, 3, 0, 4, 0x2b, 3, 0, 3, 0, 3, 0})    // 1.2 µs: one MTU serialisation
	delays := [12]simtime.Time{0, 1, 100, 1<<wheelShift - 1, 1 << wheelShift,
		1 << (wheelShift + wheelBits), 1<<(wheelShift+wheelBits) + 5<<wheelShift, 1 << (wheelShift + 2*wheelBits),
		12_800, 100_000, 112_800, 1_200_000}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 2*8192)]
		d := &wheelVsRef{t: t, name: "fuzz"}
		for ; len(data) >= 2; data = data[2:] {
			op, v := data[0]%4, data[1]
			switch {
			case op <= 1:
				i := (int(data[0]>>2&1)<<3 | int(v&7)) % len(delays)
				d.arm(d.now+delays[i], simtime.Time(v>>3&3), uint32(v>>5&3))
			case op == 2 && len(d.handles) > 0:
				d.cancel(d.handles[int(v)%len(d.handles)])
			case op == 3 && len(d.ref) > 0:
				d.pop()
			}
		}
		d.drain()
	})
}

// BenchmarkStageSort times sortRun on runs of random-order entries, the shape
// a crowded level-0 slot has: arm order says little about `at` within a slot.
// ns/elem per run length is the sweep stageBlock was chosen on (DESIGN.md
// §12); the run and spare are sized before the timer starts.
func BenchmarkStageSort(b *testing.B) {
	for _, n := range []int{18, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src := make([]stagedEntry, n)
			for i := range src {
				src[i] = stagedEntry{at: simtime.Time(rng.Intn(1 << wheelShift)), seq: uint64(i), idx: int32(i + 1)}
			}
			var w timerWheel
			for cap(w.staged) < n {
				w.growRun()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.staged = append(w.staged[:0], src...)
				w.sortRun()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}
