package emu

import (
	"sync"
	"sync/atomic"
)

// DPDK-style mbuf segment pool for the emulator's packet buffers
// (DESIGN.md §12, trex-emu's Mbuf idiom): fixed-size refcounted segments
// carved from a shared pool, chained for payloads larger than one segment.
// The per-packet `make([]byte, ...)` in flowSender — formerly the one
// deliberate hot-path allocation, "no free path back to the sender" — goes
// away: a packet's buffer is its segment's storage, the emuPkt traveling
// through port channels carries the segment, and whoever terminates the
// packet (delivery, drop, dead link) releases it back to the pool.
//
// Refcounts exist for broadcast fan-out: one encoded broadcast buffer is
// enqueued read-only to every child port of the tree, retained once per
// enqueue and released by each consumer, so an N-way flood shares one
// segment instead of N copies. Data packets keep ref == 1 end to end,
// which is what makes their in-place RIdx increment at every transit hop
// safe.

// mbufSegSize is the fixed segment payload capacity. One MTU packet
// (1500 B + header) fits a single segment; larger payloads chain.
const mbufSegSize = 2048

// mbufPoolIdleCap bounds how many free segments the pool retains (8 MiB),
// above the ~1,440 segments a rack of bulk flows keeps live, so the steady
// state recycles. Segments freed beyond it go to the GC, so a transient
// burst does not pin its peak buffer count for the life of the rack.
const mbufPoolIdleCap = 4096

// mbuf is one fixed-size buffer segment. next links chain continuation
// segments while the mbuf is live, and the pool free list while it is not.
type mbuf struct {
	data [mbufSegSize]byte
	n    int // bytes used in data (chain bookkeeping)
	ref  atomic.Int32
	next *mbuf
}

// retain adds one reference to the segment (chains share the head's
// refcount: continuation segments are never handed out independently).
func (m *mbuf) retain() { m.ref.Add(1) }

// mbufPool hands out segments. Shared by every goroutine in a rack, so it
// is mutex-protected; get/put are O(1) pointer pops well off the scale of
// the channel operations surrounding them.
type mbufPool struct {
	mu    sync.Mutex
	free  *mbuf
	freeN int

	allocs   uint64 // segments ever created
	released uint64 // free segments dropped to the GC past the idle cap
	live     int64  // segments currently out of the pool
	peakLive int64
}

// MbufPoolStats is a snapshot of pool occupancy, exposed for retention
// tests and capacity planning.
type MbufPoolStats struct {
	Live     int64  // segments currently held by packets
	PeakLive int64  // high-water mark of live segments
	Idle     int    // free segments retained for reuse
	Allocs   uint64 // total segments ever allocated
	Released uint64 // free segments returned to the GC
}

func (p *mbufPool) stats() MbufPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return MbufPoolStats{
		Live:     p.live,
		PeakLive: p.peakLive,
		Idle:     p.freeN,
		Allocs:   p.allocs,
		Released: p.released,
	}
}

// get returns a segment with ref 1, zero length, and no chain.
func (p *mbufPool) get() *mbuf {
	p.mu.Lock()
	m := p.free
	if m != nil {
		p.free = m.next
		p.freeN--
	} else {
		p.allocs++
	}
	p.live++
	if p.live > p.peakLive {
		p.peakLive = p.live
	}
	p.mu.Unlock()
	if m == nil {
		m = &mbuf{}
	}
	m.n = 0
	m.next = nil
	m.ref.Store(1)
	return m
}

// put returns a whole chain to the pool (idle-capped). Callers go through
// release(); put assumes the refcount already hit zero.
func (p *mbufPool) put(m *mbuf) {
	p.mu.Lock()
	for m != nil {
		next := m.next
		p.live--
		if p.freeN < mbufPoolIdleCap {
			m.next = p.free
			p.free = m
			p.freeN++
		} else {
			p.released++
		}
		m = next
	}
	p.mu.Unlock()
}

// appendChain appends b to the chain headed by m, spilling into fresh
// segments as each fills — trex-emu's chain-append. Continuation segments
// ride the head's refcount. Returns the chain's tail for further appends.
func (p *mbufPool) appendChain(m *mbuf, b []byte) *mbuf {
	tail := m
	for tail.next != nil {
		tail = tail.next
	}
	for len(b) > 0 {
		if tail.n == mbufSegSize {
			seg := p.get()   // counts as live until the chain is put back
			seg.ref.Store(0) // the head's refcount owns the whole chain
			tail.next = seg
			tail = seg
		}
		k := copy(tail.data[tail.n:], b)
		tail.n += k
		b = b[k:]
	}
	return tail
}

// chainBytes flattens a chain into dst (test/diagnostic helper).
func chainBytes(m *mbuf, dst []byte) []byte {
	for ; m != nil; m = m.next {
		dst = append(dst, m.data[:m.n]...)
	}
	return dst
}

// emuPkt is one packet in flight inside the rack: buf is the wire bytes
// (aliasing seg's storage when pooled), seg the backing segment, nil for
// unpooled buffers (retain/release no-op on those).
type emuPkt struct {
	buf []byte
	seg *mbuf
}

func (pk emuPkt) retain() {
	if pk.seg != nil {
		pk.seg.retain()
	}
}

// release drops one reference; the last one returns the segment chain to
// the rack's pool.
func (r *Rack) release(pk emuPkt) {
	if pk.seg != nil && pk.seg.ref.Add(-1) == 0 {
		r.pool.put(pk.seg)
	}
}
