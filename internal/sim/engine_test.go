package sim

import (
	"testing"

	"r2c2/internal/simtime"
)

func TestEngineOrdering(t *testing.T) {
	var eng Engine
	var order []int
	eng.Schedule(30, func() { order = append(order, 3) })
	eng.Schedule(10, func() { order = append(order, 1) })
	eng.Schedule(20, func() { order = append(order, 2) })
	eng.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if eng.Now() != 100 {
		t.Fatalf("now = %v", eng.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var eng Engine
	hits := 0
	eng.Schedule(10, func() {
		hits++
		eng.After(5, func() { hits++ })
	})
	eng.Run(20)
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestEngineStopsAtHorizon(t *testing.T) {
	var eng Engine
	ran := false
	eng.Schedule(100, func() { ran = true })
	eng.Run(50)
	if ran {
		t.Fatal("event past horizon ran")
	}
	if !eng.Pending() {
		t.Fatal("pending event lost")
	}
	eng.Run(100)
	if !ran {
		t.Fatal("event not run after horizon extended")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var eng Engine
	eng.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		eng.Schedule(5, func() {})
	})
	eng.Run(10)
}

// TestEngineHeapStress pushes events with colliding pseudo-random
// timestamps through the value heap and checks the full pop order:
// ascending time, FIFO among equal timestamps. This is the property the
// hand-rolled heap must preserve from the container/heap version.
func TestEngineHeapStress(t *testing.T) {
	var eng Engine
	const n = 2000
	type stamp struct {
		at  simtime.Time
		seq int
	}
	var got []stamp
	state := uint64(42)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407 // LCG: deterministic
		at := simtime.Time(state % 97)                          // heavy collisions
		seq := i
		eng.Schedule(at, func() { got = append(got, stamp{at, seq}) })
	}
	if eng.Run(1000) != n {
		t.Fatal("event count mismatch")
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("pop %d: time went backwards (%v after %v)", i, got[i].at, got[i-1].at)
		}
		if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
			t.Fatalf("pop %d: FIFO violated at t=%v (seq %d after %d)",
				i, got[i].at, got[i].seq, got[i-1].seq)
		}
	}
}
