package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinBudget bounds how many times an idle helper polls for the next phase
// before it parks: a few epochs' worth, so a helper is still spinning when
// the next fanned-out phase of a busy stretch arrives but never holds a CPU
// through a quiet one. Every spinYield polls the spinner offers its CPU to
// whatever else is runnable (tests run 8 workers on 2 CPUs).
const (
	spinBudget = 1 << 14
	spinYield  = 1 << 7
)

// fanout runs one phase at a time of an indexed job across the calling
// goroutine and a fixed set of helper goroutines. do publishes a phase by
// storing the count of unclaimed indices in remaining — the word idle
// helpers spin on, then park on. Every worker claims an index by
// decrementing remaining with a CAS and bumps done per finished job; the
// phase closes when done reaches the job count. A successful claim is what
// orders a helper's reads of whatever the caller prepared for the phase
// after the caller's writes, and do returns only after every claim has
// reported done, so a helper that arrives late finds nothing to claim and
// touches nothing.
type fanout struct {
	helpers   int
	job       func(i int) // set once by start
	remaining atomic.Int32
	done      atomic.Int32
	quit      atomic.Bool

	// Parked helpers wait on cond. A helper raises parked before its last
	// look at remaining and release reads parked after storing remaining, so
	// one of the two always sees the other and no wake-up is lost.
	mu     sync.Mutex
	cond   sync.Cond // L is &mu, set by start
	parked atomic.Int32
}

// start spawns the helpers that will run job beside the caller; stop
// retires them. A negative count would leave stop waiting for ever.
func (f *fanout) start(helpers int, job func(i int)) {
	if helpers < 0 {
		panic("sim: fanout started with a negative helper count")
	}
	f.helpers, f.job = helpers, job
	f.cond.L = &f.mu
	for w := 0; w < helpers; w++ {
		go f.helper()
	}
}

// do runs job(0) … job(n-1), each exactly once, on the caller and up to n-1
// helpers, and returns when all have finished. Calls must not overlap.
func (f *fanout) do(n int) {
	f.done.Store(0)
	f.remaining.Store(int32(n))
	f.release(n - 1)
	f.claim()
	f.await(n)
}

// stop retires the helpers and returns once every one has exited.
func (f *fanout) stop() {
	f.done.Store(0)
	f.quit.Store(true)
	f.release(f.helpers)
	f.await(f.helpers)
}

// release unparks up to n helpers; it costs one load while none is parked.
func (f *fanout) release(n int) {
	if f.parked.Load() == 0 {
		return
	}
	f.mu.Lock()
	for ; n > 0; n-- {
		f.cond.Signal()
	}
	f.mu.Unlock()
}

// await returns once done reaches n. The caller waits only for jobs already
// claimed, so it polls, yielding its CPU to the claimants every spinYield.
func (f *fanout) await(n int) {
	for i := 1; f.done.Load() != int32(n); i++ {
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
}

// claim runs jobs of the published phase until none is left unclaimed.
func (f *fanout) claim() {
	for {
		r := f.remaining.Load()
		if r <= 0 {
			return
		}
		if f.remaining.CompareAndSwap(r, r-1) {
			f.job(int(r - 1))
			f.done.Add(1)
		}
	}
}

func (f *fanout) helper() {
	ready := func() bool { return f.remaining.Load() > 0 || f.quit.Load() }
	for {
		for i := 1; i <= spinBudget && !ready(); i++ {
			if i%spinYield == 0 {
				runtime.Gosched()
			}
		}
		if !ready() {
			f.mu.Lock()
			f.parked.Add(1)
			for !ready() {
				f.cond.Wait()
			}
			f.parked.Add(-1)
			f.mu.Unlock()
		}
		if f.quit.Load() {
			f.done.Add(1)
			return
		}
		f.claim()
	}
}
