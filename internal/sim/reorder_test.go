package sim

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
)

// mapWindow is the reorder buffer reorderWindow replaced, as R2C2's
// receiveData had it: the reference the bitmap is held to.
type mapWindow struct {
	next uint32
	oob  map[uint32]bool
}

func (m *mapWindow) accept(seq uint32) bool {
	isNew := seq >= m.next && !m.oob[seq]
	if seq == m.next {
		m.next++
		for m.oob[m.next] {
			delete(m.oob, m.next)
			m.next++
		}
	} else if seq > m.next {
		m.oob[seq] = true
	}
	return isNew
}

// requireSameWindow feeds one packet to both buffers and compares all three
// things a receiver reads: whether the packet was new, the next sequence
// expected, and how many packets are buffered.
func requireSameWindow(t *testing.T, w *reorderWindow, ref *mapWindow, step int, seq uint32) {
	t.Helper()
	got, want := w.accept(seq), ref.accept(seq)
	if got != want || w.next != ref.next || w.buffered != len(ref.oob) {
		t.Fatalf("step %d, seq %d: isNew %v next %d buffered %d, want %v %d %d",
			step, seq, got, w.next, w.buffered, want, ref.next, len(ref.oob))
	}
}

// take removes and returns s[i].
func take(s []uint32, i int) (uint32, []uint32) {
	v := s[i]
	return v, append(s[:i], s[i+1:]...)
}

// TestReorderWindowMatchesMapReference drives the bitmap and the map it
// replaced with the same randomised packet streams: reordering within a
// horizon that grows from under a word to several (so the ring doubles with a
// buffer in it, and gaps straddle word boundaries), duplicates of buffered and
// of delivered packets, late packets far below next, and a flow long enough
// to take sequence numbers past 2^16 (the ring wraps many times over).
func TestReorderWindowMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, horizon := range []int{1, 7, 63, 64, 65, 300, 5000} {
		w, ref := &reorderWindow{}, &mapWindow{oob: map[uint32]bool{}}
		const total = 70_000 // sequences past 2^16
		// pending holds the next `horizon` unsent sequences; each step sends a
		// random one of them (or a duplicate, or a late packet) and refills.
		var pending []uint32
		sent := uint32(0)
		maxWords := 0
		for step := 0; ref.next < total; step++ {
			for len(pending) < horizon {
				pending = append(pending, sent)
				sent++
			}
			var seq uint32
			switch r := rng.Intn(20); {
			case r == 0 && ref.next > 0:
				seq = uint32(rng.Intn(int(ref.next))) // late: delivered long ago
			case r == 1:
				seq = ref.next + uint32(rng.Intn(horizon)) // buffered already, or not yet: either way valid
			case r == 2 && horizon > 1:
				// Hold the head of line back so that a buffer builds up behind it.
				seq, pending = take(pending, 1+rng.Intn(len(pending)-1))
			default:
				i := rng.Intn(len(pending))
				if rng.Intn(3) == 0 {
					i = 0
				}
				seq, pending = take(pending, i)
			}
			requireSameWindow(t, w, ref, step, seq)
			maxWords = max(maxWords, len(w.words))
		}
		if horizon == 1 && w.words != nil {
			t.Errorf("in-order delivery allocated a %d-word ring", len(w.words))
		}
		if horizon == 5000 && maxWords < 64 {
			t.Errorf("horizon %d peaked at a %d-word ring: the ring never doubled with a buffer in it", horizon, maxWords)
		}
		if w.buffered != 0 && len(pending) == 0 {
			t.Errorf("horizon %d: %d packets still buffered after the last was delivered", horizon, w.buffered)
		}
	}
}

// FuzzReorderWindow decodes arbitrary bytes into a packet stream — two bytes
// a packet, an offset from the next expected sequence, biased low and up to
// 4,095 ahead (a 64-word ring) or 255 behind — and holds the bitmap to the map
// reference.
func FuzzReorderWindow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 0, 0, 0})             // 1 ahead twice (a duplicate), then the gap closes
	f.Add([]byte{0, 64, 0, 63, 0, 65, 0, 0, 0x80, 5}) // across a word boundary; then a late packet
	f.Add([]byte{0x0f, 0xff, 0, 0, 0x0f, 0xfe})       // the far edge of a 64-word ring
	f.Add([]byte{0x00, 0x01, 0x01, 0x01})             // 1 ahead, then 257 ahead: span 5 on a four-word ring whose word 0 holds a bit
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 2*8192)]
		w, ref := &reorderWindow{}, &mapWindow{oob: map[uint32]bool{}}
		for step := 0; len(data) >= 2; step, data = step+1, data[2:] {
			v := binary.BigEndian.Uint16(data)
			seq := ref.next + uint32(v&0x0fff)
			if v&0x8000 != 0 {
				seq = ref.next - min(ref.next, uint32(v&0xff))
			}
			requireSameWindow(t, w, ref, step, seq)
		}
	})
}

// Multi-path spraying reorders packets; the receiver's reorder buffer must
// observe it, and its occupancy must stay modest at moderate load (§5.2:
// "the 95th percentile of the re-order buffer size was 30 packets").
func TestReorderTracking(t *testing.T) {
	g := torus(t, 4, 3)
	eng, _, r := newR2C2Net(t, g, R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS, Recompute: 200 * simtime.Microsecond})
	// Long multi-hop flows: many concurrent paths of different lengths.
	for i := 0; i < 6; i++ {
		r.StartFlow(0, 42, 4<<20, 1, 0)
	}
	eng.Run(simtime.Second)
	if r.Reorder.Len() == 0 {
		t.Fatal("no reorder observations recorded")
	}
	if r.Reorder.Percentile(100) == 0 {
		t.Fatal("RPS over a 64-node torus produced zero reordering; suspicious")
	}
	if p95 := r.Reorder.Percentile(95); p95 > 100 {
		t.Fatalf("p95 reorder buffer = %.0f packets; queues must be misbehaving", p95)
	}
	// Single-path DOR must produce no reordering at all.
	eng2, _, r2 := newR2C2Net(t, g, R2C2Config{
		Headroom: 0.05, Protocol: routing.DOR, Recompute: 200 * simtime.Microsecond})
	r2.StartFlow(0, 42, 4<<20, 1, 0)
	eng2.Run(simtime.Second)
	if r2.Reorder.Percentile(100) != 0 {
		t.Fatalf("DOR produced reordering: max %v", r2.Reorder.Percentile(100))
	}
}
