package emu

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"r2c2/internal/topology"
)

func TestMbufPoolGetPutRecycles(t *testing.T) {
	var p mbufPool
	a := p.get()
	if a.ref.Load() != 1 {
		t.Fatalf("fresh segment: ref=%d", a.ref.Load())
	}
	p.put(a)
	b := p.get()
	if b != a {
		t.Fatal("pool did not recycle the freed segment")
	}
	st := p.stats()
	if st.Allocs != 1 || st.Live != 1 {
		t.Fatalf("stats after recycle: %+v", st)
	}
	p.put(b)
}

func TestMbufPoolIdleCapReleases(t *testing.T) {
	// Freeing far more segments than the idle cap must hand the excess to
	// the GC instead of retaining burst memory forever.
	var p mbufPool
	var segs []*mbuf
	for i := 0; i < mbufPoolIdleCap+100; i++ {
		segs = append(segs, p.get())
	}
	for _, s := range segs {
		p.put(s)
	}
	st := p.stats()
	if st.Idle != mbufPoolIdleCap {
		t.Fatalf("idle = %d, want cap %d", st.Idle, mbufPoolIdleCap)
	}
	if st.Released != 100 {
		t.Fatalf("released = %d, want 100", st.Released)
	}
	if st.Live != 0 {
		t.Fatalf("live = %d, want 0", st.Live)
	}
}

func TestEmuPktReleaseRefcount(t *testing.T) {
	r := &Rack{}
	seg := r.pool.get()
	pkt := emuPkt{buf: seg.data[:16], seg: seg}
	// Simulate a 3-way broadcast fan-out: origin ref + 3 retained.
	for i := 0; i < 3; i++ {
		pkt.retain()
	}
	for i := 0; i < 3; i++ {
		r.pool.release(nil, pkt)
		if st := r.pool.stats(); st.Live != 1 {
			t.Fatalf("segment returned early at release %d: %+v", i, st)
		}
	}
	r.pool.release(nil, pkt) // origin's reference: last one frees
	if st := r.pool.stats(); st.Live != 0 || st.Idle != 1 {
		t.Fatalf("after final release: %+v", st)
	}
	// Unpooled packets are inert.
	r.pool.release(nil, emuPkt{buf: []byte{1, 2, 3}})
}

// End-to-end pool hygiene: after a rack runs real traffic (including a
// broadcast-heavy start/finish cycle per flow) and goes quiet, every
// segment must have found its way back to the pool — no refcount leaks on
// any delivery, forwarding, or drop path.
func TestRackReleasesAllSegmentsWhenQuiet(t *testing.T) {
	g, err := topology.NewTorus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Graph: g, LinkMbps: 400, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	var flows []*Flow
	for i := 0; i < 6; i++ {
		f, err := r.StartFlow(topology.NodeID(i), topology.NodeID((i+7)%g.Nodes()), 256<<10, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	for _, f := range flows {
		if err := f.Wait(30 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Finish broadcasts may still be in flight after the last data byte;
	// give the fabric a moment to drain, then require a fully quiet pool:
	// every link goroutine flushes its cache before it blocks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.MbufStats()
		if st.Live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("segments leaked: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Stop cuts long flows short: senders exit with segments cached, links
	// with packets in hand. Once every goroutine has exited only the port
	// queues hold segments, and draining them must leave none live.
	flows = flows[:0]
	for i := 0; i < 6; i++ {
		f, err := r.StartFlow(topology.NodeID(i), topology.NodeID((i+7)%g.Nodes()), 64<<20, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	for _, f := range flows {
		for f.bytesRcvd.Load() == 0 {
			if time.Now().After(deadline.Add(5 * time.Second)) {
				t.Fatalf("flow %v never delivered a byte", f.Info().ID)
			}
			time.Sleep(time.Millisecond)
		}
	}
	r.Stop()
	for _, p := range r.ports {
		for len(p.ch) > 0 {
			r.pool.release(nil, <-p.ch)
		}
	}
	if st := r.MbufStats(); st.Live != 0 || st.PeakLive == 0 {
		t.Fatalf("segments leaked across Stop, or the pool was never exercised: %+v", st)
	}
}

// A sender-side cache refills under one lock with as many segments as asked
// (clamped to the cache), a link-side cache collects released chains and
// flushes them at mbufLinkCache or when its owner goes idle, and the stats
// balance throughout: every segment ever made is live (held or cached) or
// idle in the shared list.
func TestMbufCacheRefillReleaseFlush(t *testing.T) {
	var p mbufPool
	check := func(live int64, idle int, allocs uint64) {
		t.Helper()
		st := p.stats()
		if st.Live != live || st.Idle != idle || st.Allocs != allocs || st.Released != 0 {
			t.Fatalf("stats %+v, want live %d idle %d allocs %d", st, live, idle, allocs)
		}
		if uint64(st.Live)+uint64(st.Idle) != st.Allocs {
			t.Fatalf("stats do not balance: %+v", st)
		}
	}
	var send, link mbufCache
	var held []emuPkt
	takeN := func(n, want int) {
		for i := 0; i < n; i++ {
			m := p.take(&send, want)
			if m.ref.Load() != 1 {
				t.Fatalf("taken segment: ref=%d", m.ref.Load())
			}
			held = append(held, emuPkt{buf: m.data[:0], seg: m})
		}
	}
	takeN(1, 5) // one refill of five
	if send.n != 4 {
		t.Fatalf("after a refill of 5 and one take, cache holds %d", send.n)
	}
	check(5, 0, 5)
	takeN(4, 5) // served from the cache: no refill
	check(5, 0, 5)
	takeN(1, 1000) // clamped to the cache size
	if send.n != mbufSenderCache-1 {
		t.Fatalf("an oversized refill left %d cached, want %d", send.n, mbufSenderCache-1)
	}
	check(5+mbufSenderCache, 0, 5+mbufSenderCache)
	takeN(mbufLinkCache, 0)

	// A segment still referenced elsewhere stays out of the cache.
	held[0].retain()
	p.release(&link, held[0])
	if link.n != 0 {
		t.Fatal("a segment with a live reference was cached")
	}
	for i, pk := range held[:mbufLinkCache-1] {
		p.release(&link, pk)
		if link.n != i+1 {
			t.Fatalf("after %d releases the link cache holds %d", i+1, link.n)
		}
	}
	check(5+mbufSenderCache, 0, 5+mbufSenderCache) // cached segments are live
	p.release(&link, held[mbufLinkCache-1])        // the limit flushes
	if link.n != 0 {
		t.Fatalf("the link cache kept %d at its limit", link.n)
	}
	check(5+mbufSenderCache-mbufLinkCache, mbufLinkCache, 5+mbufSenderCache)

	for _, pk := range held[mbufLinkCache : mbufLinkCache+2] {
		p.release(&link, pk)
	}
	p.flush(&link) // the owner goes idle
	check(5+mbufSenderCache-mbufLinkCache-2, mbufLinkCache+2, 5+mbufSenderCache)

	for _, pk := range held[mbufLinkCache+2:] {
		p.release(nil, pk)
	}
	p.flush(&send) // the sender exits with segments cached
	check(0, 5+mbufSenderCache, 5+mbufSenderCache)
	p.flush(&send) // an empty flush is a no-op
	check(0, 5+mbufSenderCache, 5+mbufSenderCache)
}

// Producers take segments from their own caches and hand each to one to
// three consumers, as a sender hands a data packet to one link and a flood
// fans out; every consumer releases into its own cache. A segment may go
// back out only after its last reference is gone: holders counts, per
// segment, the references handed out and not yet released, and a take must
// find it at zero. The tag each producer writes and each consumer reads
// lets the race detector see a segment reused under a live reader. A
// segment freed twice corrupts the free list and can hang the pool, so the
// hand-off runs against a deadline.
func TestMbufCachesHandOffAcrossGoroutines(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 3000
	var p mbufPool
	var mu sync.Mutex
	holders := make(map[*mbuf]int)
	type handoff struct {
		pk  emuPkt
		tag uint64
	}
	chans := make([]chan handoff, consumers)
	for i := range chans {
		chans[i] = make(chan handoff, 64)
	}
	var cwg, pwg sync.WaitGroup
	for c := range chans {
		cwg.Add(1)
		go func(in <-chan handoff) {
			defer cwg.Done()
			var cache mbufCache
			defer p.flush(&cache)
			for h := range in {
				if got := binary.LittleEndian.Uint64(h.pk.seg.data[:8]); got != h.tag {
					t.Errorf("segment reused under a reader: tag %x, want %x", got, h.tag)
				}
				mu.Lock()
				holders[h.pk.seg]--
				mu.Unlock()
				p.release(&cache, h.pk)
			}
		}(chans[c])
	}
	for w := 0; w < producers; w++ {
		pwg.Add(1)
		go func(w int) {
			defer pwg.Done()
			var cache mbufCache
			defer p.flush(&cache)
			for i := 0; i < perProducer; i++ {
				m := p.take(&cache, perProducer-i)
				fan := 1 + i%3
				mu.Lock()
				if n := holders[m]; n != 0 {
					t.Errorf("segment taken with %d references still out", n)
				}
				holders[m] = fan
				mu.Unlock()
				tag := uint64(w)<<32 | uint64(i)
				binary.LittleEndian.PutUint64(m.data[:8], tag)
				pk := emuPkt{buf: m.data[:8], seg: m}
				for k := 1; k < fan; k++ {
					pk.retain()
				}
				for k := 0; k < fan; k++ {
					chans[(w+i+k)%consumers] <- handoff{pk, tag}
				}
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() {
		pwg.Wait()
		for _, ch := range chans {
			close(ch)
		}
		cwg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("hand-off did not finish: the shared free list is corrupt")
	}
	if st := p.stats(); st.Live != 0 || uint64(st.Idle)+st.Released != st.Allocs {
		t.Fatalf("segments outstanding after every cache flushed: %+v", st)
	}
}

// BenchmarkMbufPool times one segment's get and release with every
// goroutine on the shared free list (shared: one lock each way per
// segment), and through per-goroutine caches (cached: a sender-size refill
// and a link-size flush per batch), as the rack's data path does.
func BenchmarkMbufPool(b *testing.B) {
	b.Run("shared", func(b *testing.B) {
		var p mbufPool
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				p.release(nil, emuPkt{seg: p.get()})
			}
		})
	})
	b.Run("cached", func(b *testing.B) {
		var p mbufPool
		b.RunParallel(func(pb *testing.PB) {
			var send, link mbufCache
			defer p.flush(&send)
			defer p.flush(&link)
			for pb.Next() {
				p.release(&link, emuPkt{seg: p.take(&send, mbufSenderCache)})
			}
		})
	})
}
