package sim

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestFanoutRunsEveryJobOnce drives the phase fan-out the way the epoch loop
// does — thousands of back-to-back phases of 1–9 jobs over 7 helpers, most
// of them far shorter than a wake-up — and requires every index of every
// phase to run exactly once before do returns, with the helpers retired at
// the end. Bursts are separated by pauses long enough for the helpers to
// exhaust their spin budget, so both the spinning and the parked release
// paths are exercised. Run with -race:
// the per-phase counters are plain memory handed from caller to helpers and
// back through the claim and done words alone.
func TestFanoutRunsEveryJobOnce(t *testing.T) {
	var f fanout
	var spin atomic.Int64
	var ran []int // plain, rewritten per phase: ordered by the fan-out's own synchronisation
	f.start(7, func(i int) {
		ran[i]++
		for k := 0; k < 50*i; k++ { // uneven job lengths
			spin.Add(1)
		}
	})
	rng := rand.New(rand.NewSource(1))
	for phase := 0; phase < 4000; phase++ {
		n := 1 + rng.Intn(9)
		ran = make([]int, n)
		f.do(n)
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("phase %d: job %d of %d ran %d times", phase, i, n, c)
			}
		}
		if phase%500 == 499 {
			for k := 0; k < 20*spinBudget; k++ { // let the helpers park
				spin.Add(1)
			}
		}
	}
	f.stop()
	if got := f.done.Load(); got != 7 {
		t.Fatalf("%d of 7 helpers exited", got)
	}
}
