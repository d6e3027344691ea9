package emu

import (
	"sync"
	"sync/atomic"
)

// DPDK-style mbuf segment pool for the emulator's packet buffers
// (DESIGN.md §12, trex-emu's Mbuf idiom): fixed-size refcounted segments
// carved from a shared pool, one per packet.
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
// (1500 B + header) fits a single segment, and no packet is larger.
const mbufSegSize = 2048

// mbufPoolIdleCap bounds how many free segments the pool retains (8 MiB),
// above the ~1,440 segments a rack of bulk flows keeps live, so the steady
// state recycles. Segments freed beyond it go to the GC, so a transient
// burst does not pin its peak buffer count for the life of the rack.
const mbufPoolIdleCap = 4096

// Per-goroutine cache sizes (see mbufCache). A flow sender refills up to
// mbufSenderCache segments at once; a link goroutine flushes the segments
// released on it once it holds mbufLinkCache. At most links × mbufLinkCache
// + senders × mbufSenderCache segments sit in caches, 1 MiB of link caches
// on a 4×4 torus. The link cache stays small because what it holds is out
// of circulation until it fills or its link goes idle.
const (
	mbufSenderCache = 32
	mbufLinkCache   = 8
)

// mbuf is one fixed-size buffer segment.
type mbuf struct {
	data [mbufSegSize]byte
	ref  atomic.Int32
}

// retain adds one reference to the segment.
func (m *mbuf) retain() { m.ref.Add(1) }

// mbufPool hands out segments. Its free list is shared by every goroutine
// in a rack, so it is mutex-protected, and with one lock per packet that
// lock was the emulator's hottest point: 28.6 % of an emu-bulk profile sat
// in get and put, most of it spinning in sync.Mutex.lockSlow. The data-path
// goroutines therefore go through a private mbufCache and lock the shared
// list once per batch (DPDK's per-lcore mempool cache); get and put are the
// one-segment path for everything else.
type mbufPool struct {
	mu sync.Mutex
	// free is a stack of pointers, not a list threaded through the
	// segments: a batch moves under the lock as one copy, without touching
	// segments another core last wrote.
	free []*mbuf

	allocs   uint64 // segments ever created
	released uint64 // free segments dropped to the GC past the idle cap
	// live counts every segment outside the shared free list, cached ones
	// included, so Live == 0 on a quiet rack (whose caches have flushed)
	// still means no segment leaked.
	live     int64
	peakLive int64
}

// mbufCache is a segment magazine only its owning goroutine touches: a flow
// sender takes the segments it refilled under one lock, a link goroutine
// collects the segments released on it and flushes them under one lock. A
// link flushes before it blocks on an empty port; every owner flushes when
// it exits.
type mbufCache struct {
	segs [mbufSenderCache]*mbuf
	n    int
}

// MbufPoolStats is a snapshot of pool occupancy, exposed for retention
// tests and capacity planning.
type MbufPoolStats struct {
	Live     int64  // segments out of the shared free list: held by packets or cached
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
		Idle:     len(p.free),
		Allocs:   p.allocs,
		Released: p.released,
	}
}

// getBatch fills segs with segments of ref 1, under one lock.
func (p *mbufPool) getBatch(segs []*mbuf) {
	p.mu.Lock()
	k := min(len(segs), len(p.free))
	rest := len(p.free) - k
	copy(segs, p.free[rest:])
	clear(p.free[rest:])
	p.free = p.free[:rest]
	p.allocs += uint64(len(segs) - k)
	p.live += int64(len(segs))
	if p.live > p.peakLive {
		p.peakLive = p.live
	}
	p.mu.Unlock()
	for i := k; i < len(segs); i++ {
		segs[i] = &mbuf{}
	}
	for _, m := range segs {
		m.ref.Store(1)
	}
}

// putBatch returns segments to the pool (idle-capped) under one lock.
// Callers go through release or flush; putBatch assumes every refcount
// already hit zero.
func (p *mbufPool) putBatch(segs []*mbuf) {
	p.mu.Lock()
	p.live -= int64(len(segs))
	for _, m := range segs {
		if len(p.free) < mbufPoolIdleCap {
			p.free = append(p.free, m)
		} else {
			p.released++
		}
	}
	p.mu.Unlock()
}

// get returns one segment with ref 1.
func (p *mbufPool) get() *mbuf {
	var one [1]*mbuf
	p.getBatch(one[:])
	return one[0]
}

// put returns one segment to the pool.
func (p *mbufPool) put(m *mbuf) {
	one := [1]*mbuf{m}
	p.putBatch(one[:])
}

// take returns a segment from c, refilling an empty c with want segments
// (clamped to [1, mbufSenderCache]) under one lock. A sender asks for as
// many as it has packets left, so a finished flow leaves nothing cached.
func (p *mbufPool) take(c *mbufCache, want int) *mbuf {
	if c.n == 0 {
		want = max(1, min(want, len(c.segs)))
		p.getBatch(c.segs[:want])
		c.n = want
	}
	c.n--
	return c.segs[c.n]
}

// flush returns every segment c holds to the shared free list.
func (p *mbufPool) flush(c *mbufCache) {
	if c.n == 0 {
		return
	}
	p.putBatch(c.segs[:c.n])
	clear(c.segs[:c.n])
	c.n = 0
}

// emuPkt is one packet in flight inside the rack: buf is the wire bytes
// (aliasing seg's storage), seg the backing segment, nil for unpooled buffers
// (inert to retain/release); a port's one unpooled packet is Stop's sentinel.
type emuPkt struct {
	buf []byte
	seg *mbuf
}

func (pk emuPkt) retain() {
	if pk.seg != nil {
		pk.seg.retain()
	}
}

// release drops one reference on pk (unpooled packets are inert). The last
// one returns the segment to c, which flushes once it holds mbufLinkCache
// segments, or to the shared free list when c is nil.
func (p *mbufPool) release(c *mbufCache, pk emuPkt) {
	if pk.seg == nil || pk.seg.ref.Add(-1) != 0 {
		return
	}
	if c == nil {
		p.put(pk.seg)
		return
	}
	c.segs[c.n] = pk.seg
	c.n++
	if c.n >= mbufLinkCache {
		p.flush(c)
	}
}
