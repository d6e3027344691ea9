// Package emu is an in-process rack emulation platform — this repo's
// substitute for Maze, the RDMA-cluster emulator of §4.1. Where Maze maps
// virtual links onto RDMA queue pairs between physical servers, emu maps
// them onto goroutines and channels inside one process:
//
//   - every directed virtual link is a buffered channel (Maze's data ring
//     buffer) plus a goroutine that paces packets at the configured link
//     bandwidth (Maze's rate-controlled outgoing link),
//   - packets are []byte in the real R2C2 wire format, forwarded zero-copy:
//     intermediate nodes read the next-hop port from the route field and
//     increment ridx in place, never parsing or copying the payload,
//   - the full R2C2 user-space stack runs on every emulated node: flow
//     event broadcasts over broadcast trees, per-node traffic-matrix views,
//     periodic local rate computation, and one token-bucket rate limiter
//     per flow at the sender (§4.2).
//
// Unlike package sim, emu runs in real (wall-clock) time with true
// concurrency, so its results are statistical rather than deterministic —
// exactly like the hardware testbed it replaces. The Figure 7
// cross-validation compares its throughput and queueing distributions
// against the simulator's.
package emu

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"r2c2/internal/core"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// Config parameterises an emulated rack.
type Config struct {
	Graph *topology.Graph
	// LinkMbps is the virtual link bandwidth in megabits per second. The
	// paper emulates 5 Gbps links on a 16-server RDMA cluster; a single
	// process comfortably paces a few hundred Mbps per virtual link, which
	// preserves all rate-allocation behaviour (everything scales with
	// capacity). Default 200.
	LinkMbps float64
	// Headroom is the §3.3.2 bandwidth headroom. Default 0.05.
	Headroom float64
	// Recompute is the wall-clock rate recomputation interval ρ.
	// Default 4×core.DefaultRho (2ms).
	Recompute time.Duration
	// Protocol routes new flows. Default RPS.
	Protocol routing.Protocol
	// TreesPerSource is the number of broadcast trees per node. Default 2.
	TreesPerSource int
	Seed           int64
}

// queuePackets is the per-port queue depth in packets (~1.5 MB at MTU,
// matching the simulator's default drop-tail limit): the emulator has no
// end-to-end retransmission, so queues must absorb the line-rate bursts of
// newly started flows (§3.3.2) without loss.
const queuePackets = 1024

// maxBurst bounds how far a paced sender may fall behind its schedule
// before credit stops accumulating: oversleeps inside the window are
// repaid with back-to-back sends; longer stalls are forgiven.
const maxBurst = 5 * time.Millisecond

// zeroPayload is the shared read-only payload source — the emulated app
// sends zero bytes. Replaces the former per-sender 1500-byte scratch.
var zeroPayload [1500]byte

// mtuPayload is a full data packet's payload: a 1500-byte MTU less the header.
const mtuPayload = min(wire.MaxPayload, 1500-wire.DataHeaderSize)

func (c *Config) defaults() {
	if c.LinkMbps == 0 {
		c.LinkMbps = 200
	}
	if c.Recompute == 0 {
		// 4ρ: the paper's 500 µs assumes a dedicated rack; a wall-clock
		// emulator sharing one host needs slack for scheduler jitter.
		c.Recompute = 4 * core.DefaultRho
	}
	if c.TreesPerSource == 0 {
		c.TreesPerSource = 2
	}
}

// Rack is a running emulated rack. Create with New, then Start; flows are
// injected with StartFlow and the rack is torn down with Stop.
type Rack struct {
	cfg Config
	clk rackClock
	// tab is the routing table of the PHYSICAL graph. It never changes:
	// data packets carry port indices into the physical graph's out-lists,
	// so route encoding always goes through it. Path *selection* uses the
	// current fabric's table.
	tab *routing.Table

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	started  atomic.Bool // set by Start, or by a Stop that came first
	stopOnce sync.Once

	ports []*emuPort
	nodes []*emuNode

	// flows holds every flow not yet finished; flowsMu nests in emuNode.mu.
	flowsMu sync.Mutex
	flows   map[wire.FlowID]*Flow

	drops atomic.Uint64

	// fabric is the routing state every data-plane goroutine reads: swapped
	// atomically by swapFabric after a fault's detection delay, exactly like
	// the simulator's (sim/emu parity contract).
	fabric atomic.Pointer[core.Fabric]

	// faults is the failure state, under faultMu. Lock order: faultMu
	// before any emuNode.mu, never the reverse.
	faultMu   sync.Mutex
	faults    *core.Faults
	reroutes  atomic.Uint64
	faultErrs atomic.Uint64

	// Random-loss RNG shared by all lossy ports (only taken on ports with a
	// drop probability installed).
	lossMu  sync.Mutex
	lossRng *rand.Rand

	// pool is the rack-wide mbuf segment pool (mbuf.go) every packet
	// buffer is carved from.
	pool mbufPool
}

type emuPort struct {
	ch       chan emuPkt
	queued   atomic.Int64 // bytes
	maxSeen  atomic.Int64 // max queued bytes observed
	sent     atomic.Uint64
	enqueued atomic.Uint64
	// dead marks a failed link: enqueues are dropped and the linkLoop
	// discards anything already queued (queued packets on dead ports are
	// lost, matching sim.Network.FailLink).
	dead atomic.Bool
	// dropBits is math.Float64bits of the random-drop probability.
	dropBits atomic.Uint64
}

func (p *emuPort) dropProb() float64 { return math.Float64frombits(p.dropBits.Load()) }

// emuNode is one node's stack, under mu: its protocol state over the view
// it holds column 0 of, its rate computer (rebuilt by the recompute loop
// for each new fabric), and the flows arriving at it.
type emuNode struct {
	mu sync.Mutex
	core.Node[*Flow]
	vis     core.Visibility
	rc      *core.RateComputer
	nextSeq uint16
	rcvd    map[wire.FlowID]rcvdFlow // flows arriving here (this node is dst)
}

// rcvdFlow is a destination's record of an arriving flow: its bytes so far,
// and its handle, looked up in Rack.flows on the flow's first packet only.
type rcvdFlow struct {
	bytes int64
	f     *Flow
}

// Flow is a handle on one emulated flow.
type Flow struct {
	info      core.FlowInfo
	SizeBytes int64

	rate      atomic.Uint64 // bits/s
	bytesRcvd atomic.Int64
	started   int64        // rack-clock nanos (rackClock.nowNs at StartFlow)
	finished  atomic.Int64 // rack-clock nanos; 0 while incomplete
	done      chan struct{}
	doneOnce  sync.Once
	// aborted is closed when the flow is abandoned (§3.2), abortWhy set
	// first: the sender stops and Wait returns an error giving the reason.
	aborted   chan struct{}
	abortOnce sync.Once
	abortWhy  string

	// Host-limited flows (§3.3.2): the application produces bytes at
	// appRate bits/s; the sender estimates demand from its queue
	// (Eq. 1: d[i+1] = r[i] + q[i]/T) and broadcasts changes so all nodes
	// allocate demand-aware.
	appRate float64
	node    *emuNode // the source, whose mu guards info's demand
}

// Info returns the flow's announced entry; its ID, endpoints, weight and
// priority never change.
func (f *Flow) Info() *core.FlowInfo { return &f.info }

// Demand returns the flow's last broadcast demand in Kbps
// (core.UnlimitedDemand if network-limited).
func (f *Flow) Demand() uint32 {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	return f.info.DemandKbps
}

// Rate returns the flow's current allocated rate in bits/s.
func (f *Flow) Rate() float64 { return float64(f.rate.Load()) }

// Done is closed when the receiver has every byte.
func (f *Flow) Done() <-chan struct{} { return f.done }

// Abandoned reports whether the flow was given up on because one of its
// endpoints crashed or the rack stopped first.
func (f *Flow) Abandoned() bool {
	select {
	case <-f.aborted:
		return true
	default:
		return false
	}
}

// The reasons a flow is abandoned, as Wait reports them.
const abortEndpoint, abortStopped = "after an endpoint failure", "because the rack stopped"

func (f *Flow) abort(why string) { f.abortOnce.Do(func() { f.abortWhy = why; close(f.aborted) }) }

// Wait blocks until the flow completes, is abandoned (an endpoint crashed,
// or the rack stopped), or the timeout elapses. The timer is stopped on the
// early returns — time.After would leak one timer per call until expiry.
func (f *Flow) Wait(timeout time.Duration) error {
	t := hostTimer(timeout)
	defer t.Stop()
	select {
	case <-f.done:
		return nil
	case <-f.aborted:
		return fmt.Errorf("emu: flow %v abandoned %s (%d/%d bytes)",
			f.info.ID, f.abortWhy, f.bytesRcvd.Load(), f.SizeBytes)
	case <-t.C:
		return fmt.Errorf("emu: flow %v incomplete after %v (%d/%d bytes)",
			f.info.ID, timeout, f.bytesRcvd.Load(), f.SizeBytes)
	}
}

// Throughput returns the average goodput in bits/s (0 if incomplete).
func (f *Flow) Throughput() float64 {
	fin := f.finished.Load()
	if fin == 0 {
		return 0
	}
	dt := time.Duration(fin - f.started).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(f.SizeBytes*8) / dt
}

// FCT returns the flow completion time (0 if incomplete).
func (f *Flow) FCT() time.Duration {
	fin := f.finished.Load()
	if fin == 0 {
		return 0
	}
	return time.Duration(fin - f.started)
}

// New builds an emulated rack. Call Start before injecting flows.
func New(cfg Config) (*Rack, error) {
	cfg.defaults()
	switch {
	case cfg.Graph == nil:
		return nil, fmt.Errorf("emu: Config.Graph is required")
	case !(cfg.LinkMbps > 0) || math.IsInf(cfg.LinkMbps, 1):
		return nil, fmt.Errorf("emu: LinkMbps %v is not a positive finite rate", cfg.LinkMbps)
	case !(cfg.Headroom >= 0 && cfg.Headroom < 1):
		return nil, fmt.Errorf("emu: Headroom %v is outside [0, 1)", cfg.Headroom)
	case cfg.Recompute < 0:
		return nil, fmt.Errorf("emu: negative Recompute %v", cfg.Recompute)
	case !cfg.Protocol.Valid():
		return nil, fmt.Errorf("emu: unknown Protocol %d", cfg.Protocol)
	case cfg.TreesPerSource < 1 || cfg.TreesPerSource > 255:
		return nil, fmt.Errorf("emu: TreesPerSource %d is outside [1, 255]", cfg.TreesPerSource)
	}
	for v := 0; v < cfg.Graph.Vertices(); v++ {
		if cfg.Graph.Degree(topology.NodeID(v)) > wire.MaxPorts {
			return nil, fmt.Errorf("emu: node %d has %d ports; the wire format allows %d",
				v, cfg.Graph.Degree(topology.NodeID(v)), wire.MaxPorts)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	intact := core.NewFabric(routing.NewTable(cfg.Graph), cfg.TreesPerSource, cfg.Seed)
	r := &Rack{
		cfg:     cfg,
		clk:     newRackClock(),
		tab:     intact.Tab,
		ctx:     ctx,
		cancel:  cancel,
		flows:   make(map[wire.FlowID]*Flow),
		faults:  core.NewFaults(intact),
		lossRng: rand.New(rand.NewSource(cfg.Seed)),
	}
	r.fabric.Store(&intact)
	r.ports = make([]*emuPort, cfg.Graph.NumLinks())
	for i := range r.ports {
		r.ports[i] = &emuPort{ch: make(chan emuPkt, queuePackets)}
	}
	r.nodes = make([]*emuNode, cfg.Graph.Nodes())
	for i := range r.nodes {
		n := &emuNode{vis: core.NewVisibility(1), rcvd: make(map[wire.FlowID]rcvdFlow)}
		n.Node = core.NewNode[*Flow](topology.NodeID(i), &n.vis, 0, cfg.TreesPerSource)
		r.nodes[i] = n
	}
	return r, nil
}

// Start launches the link and control-plane goroutines, once, unless Stop came first.
func (r *Rack) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	for lid := range r.ports {
		r.wg.Add(1)
		go r.linkLoop(topology.LinkID(lid))
	}
	for _, n := range r.nodes {
		r.wg.Add(1)
		go r.recomputeLoop(n)
	}
}

// Stop cancels the context (senders, recompute loops, fault timers), sends
// each port a sentinel, the zero emuPkt, that its link drains up to, joins
// every goroutine and abandons the unfinished flows. Each send completes: a
// link blocks only on its own receive, and forwarding never blocks. Stop runs
// once, as more sentinels could block on a full port no link drains.
func (r *Rack) Stop() {
	r.stopOnce.Do(func() {
		r.cancel()
		if r.started.Swap(true) {
			for _, p := range r.ports {
				p.ch <- emuPkt{}
			}
		}
		r.wg.Wait()
		r.flowsMu.Lock()
		for _, f := range r.flows {
			f.abort(abortStopped)
		}
		r.flowsMu.Unlock()
	})
}

// Drops returns packets lost to full port queues.
func (r *Rack) Drops() uint64 { return r.drops.Load() }

// MbufStats returns a snapshot of the rack's packet-buffer pool.
func (r *Rack) MbufStats() MbufPoolStats { return r.pool.stats() }

// MaxQueueBytes returns the maximum queue occupancy observed per port.
func (r *Rack) MaxQueueBytes() []int64 {
	out := make([]int64, len(r.ports))
	for i, p := range r.ports {
		out[i] = p.maxSeen.Load()
	}
	return out
}

// linkLoop paces packets through one virtual link at the configured
// bandwidth and hands them to the downstream node — the emu analogue of
// Maze's outgoing-link machinery. It wakes once per burst: an empty port
// blocks in a plain receive on p.ch, not in a select on the ctx.Done() every
// link shares, and the burst drains by receives that lock p.ch alone. It
// returns only on Stop's sentinel; a pacing sleep cut short by Stop releases
// its packet and drains on. The
// segments released on this goroutine collect in its mbuf cache, flushed
// when full, before the port blocks and on exit.
func (r *Rack) linkLoop(lid topology.LinkID) {
	defer r.wg.Done()
	var cache mbufCache
	defer r.pool.flush(&cache)
	p := r.ports[lid]
	to := r.cfg.Graph.Link(lid).To
	done := r.ctx.Done()
	now := r.clk.now() // read once per wake-up, and again after a sleep
	next := now
	for {
		var pkt emuPkt
		select {
		case pkt = <-p.ch:
		default:
			r.pool.flush(&cache)
			pkt = <-p.ch
			now = r.clk.now()
		}
		if pkt.seg == nil {
			return // Stop's sentinel; what is queued behind it stays
		}
		p.queued.Add(int64(-len(pkt.buf)))
		if p.dead.Load() {
			// Failed link: everything queued at failure time (or racing
			// the enqueue-side dead check) is lost.
			r.drops.Add(1)
			r.pool.release(&cache, pkt)
			continue
		}
		// Token-bucket pacing with bounded catch-up: when the OS timer
		// overshoots a sleep, the schedule may lag `now` by up to
		// maxBurst and is repaid by back-to-back sends, keeping the
		// long-run rate exact.
		if floor := now.Add(-maxBurst); next.Before(floor) {
			next = floor
		}
		next = next.Add(transmitTime(len(pkt.buf), r.cfg.LinkMbps))
		// Batch small sleeps: exact pacing below the OS timer
		// resolution is impossible, but long-run rates stay exact.
		if wait := next.Sub(now); wait > 500*time.Microsecond {
			select {
			case <-r.clk.after(wait):
			case <-done:
				r.pool.release(&cache, pkt)
				continue
			}
			now = r.clk.now()
		}
		p.sent.Add(uint64(len(pkt.buf)))
		r.receive(to, pkt, &cache) // receive owns the packet's reference from here
	}
}

// transmitTime is how long n bytes occupy a link of linkMbps: the
// simulator's simtime.TransmitTime, rounded to the nearest nanosecond.
func transmitTime(n int, linkMbps float64) time.Duration {
	ps := simtime.TransmitTime(n, linkMbps/1000)
	return time.Duration((ps + simtime.Nanosecond/2) / simtime.Nanosecond)
}

// lossy reports whether a packet offered to this port should be lost to
// fault injection: the link is dead, or a random-drop roll fails.
func (r *Rack) lossy(p *emuPort) bool {
	if p.dead.Load() {
		return true
	}
	if prob := p.dropProb(); prob > 0 {
		r.lossMu.Lock()
		roll := r.lossRng.Float64()
		r.lossMu.Unlock()
		if roll < prob {
			return true
		}
	}
	return false
}

// enqueue consumes one reference on pkt: the reference transfers to the
// port channel on success and is released into c on a drop (full queue,
// dead link, lossy roll) — drop-tail semantics either way.
func (r *Rack) enqueue(lid topology.LinkID, pkt emuPkt, c *mbufCache) bool {
	p := r.ports[lid]
	if r.lossy(p) {
		r.drops.Add(1)
		r.pool.release(c, pkt)
		return false
	}
	select {
	case p.ch <- pkt:
		p.queuedPkt(len(pkt.buf))
		return true
	default:
		r.drops.Add(1)
		r.pool.release(c, pkt)
		return false
	}
}

// queuedPkt accounts a packet of n bytes just sent into the port's channel.
func (p *emuPort) queuedPkt(n int) {
	q := p.queued.Add(int64(n))
	for {
		max := p.maxSeen.Load()
		if q <= max || p.maxSeen.CompareAndSwap(max, q) {
			break
		}
	}
	p.enqueued.Add(1)
}

// receive is the per-node forwarding layer (§3.5): zero-copy next-hop
// lookup for transit packets, full decode only at the destination, and a
// broadcast decoded into a stack Broadcast. It consumes the packet's
// reference: forwarding transfers it to the next port's channel, every
// terminating path (delivery, corruption, flood end) releases it into c.
func (r *Rack) receive(at topology.NodeID, pkt emuPkt, c *mbufCache) {
	b := pkt.buf
	switch {
	case wire.PacketType(b[0]) == wire.TypeData:
		dst := topology.NodeID(binary.BigEndian.Uint16(b[9:11]))
		if dst == at {
			r.deliverData(at, pkt, c)
			return
		}
		ridx := b[2]
		if ridx >= b[1] {
			panic(fmt.Sprintf("emu: route exhausted at node %d for dst %d", at, dst))
		}
		bit := int(ridx) * 3
		port := b[19+bit/8] >> (bit % 8)
		if bit%8 > 5 {
			port |= b[19+bit/8+1] << (8 - bit%8)
		}
		port &= 0x7
		// In-place RIdx increment: data packets are single-reference end to
		// end (only broadcasts fan out), so no other reader can see this.
		b[2] = ridx + 1
		out := r.cfg.Graph.Out(at)
		if int(port) >= len(out) {
			panic(fmt.Sprintf("emu: bad port %d at node %d", port, at))
		}
		r.enqueue(out[port], pkt, c)
	case wire.PacketType(b[0]>>4) == wire.TypeBroadcast:
		var bc wire.Broadcast
		if err := wire.DecodeBroadcastInto(b, &bc); err != nil {
			r.drops.Add(1) // corrupted control packet
			r.pool.release(c, pkt)
			return
		}
		n := r.nodes[at]
		n.mu.Lock()
		n.Receive(&bc)
		n.mu.Unlock()
		r.forwardBroadcast(at, topology.NodeID(bc.Src), bc.Tree, pkt, c)
		r.pool.release(c, pkt) // this hop's reference; children hold their own
	default:
		r.drops.Add(1)
		r.pool.release(c, pkt)
	}
}

// forwardBroadcast fans pkt out to the broadcast tree's children at this
// node: the same read-only segment is enqueued to every child port with
// one retained reference each, and drops release into c. The caller keeps
// (and must release) its own reference.
func (r *Rack) forwardBroadcast(at, src topology.NodeID, tree uint8, pkt emuPkt, c *mbufCache) {
	st := r.fabric.Load()
	var buf [wire.MaxPorts]topology.LinkID // New rejects a node with more ports
	hops, ok := st.Fib.AppendNextHops(buf[:0], src, tree, at)
	if !ok {
		// A fabric swap replaced the FIB underneath an in-flight broadcast:
		// the new trees need not visit `at`, and a crashed origin has no
		// trees at all. The flood stops; the post-swap re-announce
		// resynchronises any views that missed it (sim parity).
		r.drops.Add(1)
		return
	}
	st.PhysInPlace(hops)
	for _, lid := range hops {
		pkt.retain()
		r.enqueue(lid, pkt, c)
	}
}

// flood announces each broadcast of bs but nil from its origin along its
// tree. Floods are per flow, not per packet, so they take the pool's
// one-segment path.
func (r *Rack) flood(bs ...*wire.Broadcast) {
	for _, b := range bs {
		if b != nil {
			pkt := r.newBcastPkt(b)
			r.forwardBroadcast(topology.NodeID(b.Src), topology.NodeID(b.Src), b.Tree, pkt, nil)
			r.pool.release(nil, pkt)
		}
	}
}

// newBcastPkt encodes a broadcast into a pooled segment (ref 1, owned by
// the caller: forward it, then release).
func (r *Rack) newBcastPkt(b *wire.Broadcast) emuPkt {
	seg := r.pool.get()
	enc := wire.EncodeBroadcast(b)
	n := copy(seg.data[:], enc[:])
	seg.n = n
	return emuPkt{buf: seg.data[:n], seg: seg}
}

// deliverData terminates a data packet at its destination: header decode
// into a stack header (DecodeDataInto — one *DataHeader per packet here
// used to be the receive path's biggest allocator), byte accounting, flow
// completion. Only a flow's first packet takes the rack-wide flowsMu.
func (r *Rack) deliverData(at topology.NodeID, pkt emuPkt, c *mbufCache) {
	defer r.pool.release(c, pkt) // payload is consumed before this frame returns
	var h wire.DataHeader
	payload, err := wire.DecodeDataInto(pkt.buf, &h)
	if err != nil {
		r.drops.Add(1)
		return
	}
	n := r.nodes[at]
	n.mu.Lock()
	rf := n.rcvd[h.Flow]
	if rf.f == nil {
		r.flowsMu.Lock()
		rf.f = r.flows[h.Flow]
		r.flowsMu.Unlock()
	}
	rf.bytes += int64(len(payload))
	n.rcvd[h.Flow] = rf
	n.mu.Unlock()
	if rf.f == nil {
		return
	}
	rf.f.bytesRcvd.Store(rf.bytes)
	if rf.bytes >= rf.f.SizeBytes {
		// Completion lives in its own function so the closure captures only
		// finishFlow's parameters: capturing h here would force the header
		// to escape on EVERY deliverData call, not just the completing one.
		r.finishFlow(n, rf.f, h.Flow)
	}
}

// finishFlow marks a flow complete exactly once and drops it from the
// rack's flow table, unless a wrapped sequence number has reused the ID.
func (r *Rack) finishFlow(n *emuNode, f *Flow, id wire.FlowID) {
	f.doneOnce.Do(func() {
		f.finished.Store(r.clk.nowNs())
		r.flowsMu.Lock()
		if r.flows[id] == f {
			delete(r.flows, id)
		}
		r.flowsMu.Unlock()
		n.mu.Lock()
		delete(n.rcvd, id)
		n.mu.Unlock()
		close(f.done)
	})
}

// recomputeLoop is one node's periodic rate recomputation (§3.3.2): every ρ
// it water-fills its local view and updates the token buckets of the flows
// it sources.
func (r *Rack) recomputeLoop(n *emuNode) {
	defer r.wg.Done()
	ticker := r.clk.newTicker(r.cfg.Recompute)
	defer ticker.Stop()
	var sum core.DemandSummary // the view's flow list, reused
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-ticker.C:
			n.mu.Lock()
			if len(n.Flows()) > 0 {
				if tab := r.fabric.Load().Tab; n.rc == nil || n.rc.Table() != tab {
					n.rc = core.NewRateComputer(tab, r.cfg.LinkMbps*1e6, r.cfg.Headroom)
				}
				sum.Flows, sum.Hash = n.vis.AppendFlows(sum.Flows[:0], 0), n.vis.Digest(0)
				alloc := n.rc.ComputeSummary(&sum)
				for _, f := range n.Flows() {
					f.rate.Store(uint64(alloc.Rate(f.info.ID)))
				}
			}
			n.mu.Unlock()
		}
	}
}

// StartFlow injects a flow of sizeBytes from src to dst and returns its
// handle. The sender broadcasts the start event, transmits immediately at
// line rate (the headroom absorbs the pre-recomputation burst, §3.3.2),
// and paces at its allocated rate thereafter.
func (r *Rack) StartFlow(src, dst topology.NodeID, sizeBytes int64, weight, priority uint8) (*Flow, error) {
	return r.startFlow(src, dst, sizeBytes, weight, priority, 0)
}

// StartHostLimitedFlow is StartFlow for an application that produces data
// at only appRateBits bits/s (§3.3.2, "Host-limited flows"): the sender
// runs the Eq. (1) demand estimator against its application queue and
// broadcasts demand updates, so every node allocates min(fair share,
// demand) and the spare bandwidth goes to flows that can use it.
func (r *Rack) StartHostLimitedFlow(src, dst topology.NodeID, sizeBytes int64, weight, priority uint8, appRateBits float64) (*Flow, error) {
	if appRateBits <= 0 {
		return nil, fmt.Errorf("emu: non-positive app rate %v", appRateBits)
	}
	return r.startFlow(src, dst, sizeBytes, weight, priority, appRateBits)
}

func (r *Rack) startFlow(src, dst topology.NodeID, size int64, weight, priority uint8, appRate float64) (*Flow, error) {
	if src == dst || size <= 0 {
		return nil, fmt.Errorf("emu: degenerate flow %d->%d size %d", src, dst, size)
	}
	if r.ctx.Err() != nil {
		return nil, fmt.Errorf("emu: flow %d->%d started on a stopped rack", src, dst)
	}
	if weight == 0 {
		weight = 1
	}
	n := r.nodes[src]
	n.mu.Lock()
	id := wire.MakeFlowID(uint16(src), n.nextSeq)
	n.nextSeq++
	info := core.FlowInfo{
		ID: id, Src: src, Dst: dst,
		Weight: weight, Priority: priority,
		DemandKbps: core.UnlimitedDemand,
		Protocol:   r.cfg.Protocol,
	}
	// Host-limited flows start network-limited too: the demand estimator
	// discovers the application's rate from observed queuing (Eq. 1) and
	// the sender broadcasts the estimate once it diverges from what the
	// rack believes.
	f := &Flow{info: info, SizeBytes: size, started: r.clk.nowNs(), done: make(chan struct{}), aborted: make(chan struct{}), appRate: appRate, node: n}
	f.rate.Store(uint64(r.cfg.LinkMbps * 1e6))
	b, st := n.Start(f), r.fabric.Load()
	abandoned := st.Dead[src] || st.Dead[dst]
	if abandoned {
		// Abandoned at birth: a crashed endpoint can neither send nor
		// receive (sim parity: the ledger records the flow, nothing runs).
		// A live source floods only the finish, which takes the flow's
		// sequence number's turn in every view (the wrap rule) and puts
		// no flow to a dead node in any.
		b = n.Finish(f)
		f.abort(abortEndpoint)
	}
	n.mu.Unlock()

	r.flowsMu.Lock()
	r.flows[id] = f
	r.flowsMu.Unlock()

	if !st.Dead[src] { // nothing routes from a dead origin
		r.flood(b)
	}
	if abandoned {
		return f, nil
	}

	r.wg.Add(1)
	go r.flowSender(n, f)
	return f, nil
}

// flowSender is one flow's token-bucket-paced sender: it samples a fresh
// path per packet from the flow's routing protocol, encodes the wire
// packet, and injects it into the first-hop port (blocking on a full NIC
// queue, which is sender-side back-pressure, not network drop-tail).
//
// Steady state allocates nothing: packet buffers come from the rack's
// mbuf pool (released by whoever terminates the packet), and path
// sampling, route encoding and the payload source all reuse per-sender or
// shared buffers. Nor does it take a lock the whole rack shares per packet:
// segments come from the sender's mbuf cache, refilled under the pool's
// lock once per mbufSenderCache packets and flushed on exit; shutdown is
// polled with a non-blocking receive on the cached ctx.Done(), and only a
// full first-hop port blocks in a select on it.
func (r *Rack) flowSender(n *emuNode, f *Flow) {
	defer r.wg.Done()
	var cache mbufCache
	defer r.pool.flush(&cache)
	rng := routing.NewStream(r.cfg.Seed, int64(f.info.ID))
	done := r.ctx.Done()
	remaining := f.SizeBytes
	var seq uint32
	next := r.clk.now()

	// Per-sender scratch, reused across packets.
	var pathBuf []topology.LinkID
	var portBuf wire.Route
	var h wire.DataHeader

	// Demand estimation state for host-limited flows (§3.3.2 Eq. 1). The
	// estimator feeds on the achieved sending rate plus the sender-side
	// application backlog, so it converges onto the app rate from either
	// side; estimates are smoothed with an EWMA and broadcast when they
	// diverge >15% from what the rack currently believes.
	estPeriod := 4 * r.cfg.Recompute
	var estimator *core.DemandEstimator
	appStartNs := r.clk.nowNs()
	periodStartNs := appStartNs
	var sentBits float64
	var sentAtPeriodStart float64
	if f.appRate > 0 {
		estimator = core.NewDemandEstimator(simtime.FromSeconds(estPeriod.Seconds()), 0.5)
	}

	for remaining > 0 {
		select {
		case <-done:
			return
		default:
		}
		if f.Abandoned() {
			return // endpoint crashed; swapFabric purged the flow from views
		}
		var produced float64
		if f.appRate > 0 {
			// The application has produced this many bits so far.
			nowNs := r.clk.nowNs()
			produced = min(f.appRate*time.Duration(nowNs-appStartNs).Seconds(), float64(f.SizeBytes*8))
			backlog := produced - sentBits
			if nowNs-periodStartNs >= int64(estPeriod) {
				sentRate := (sentBits - sentAtPeriodStart) / time.Duration(nowNs-periodStartNs).Seconds()
				d := estimator.Observe(sentRate, backlog)
				newKbps := core.KbpsDemand(d)
				if diverges(f.info.DemandKbps, newKbps) { // written only here, under n.mu
					n.mu.Lock()
					b := n.SetDemand(f, newKbps)
					n.mu.Unlock()
					r.flood(b)
				}
				periodStartNs = nowNs
				sentAtPeriodStart = sentBits
			}
			if backlog < 8 { // nothing produced yet to send
				select {
				case <-r.clk.after(100 * time.Microsecond):
				case <-done:
					return
				}
				continue
			}
		}
		rate := f.Rate()
		if rate <= 0 {
			select {
			case <-r.clk.after(200 * time.Microsecond):
			case <-done:
				return
			}
			continue
		}
		payload := min(remaining, mtuPayload)
		if f.appRate > 0 {
			if avail := int64((produced - sentBits) / 8); avail < payload {
				payload = avail
			}
			if payload <= 0 {
				continue
			}
		}
		// Sample the path on the CURRENT fabric (reroutes swap it in after
		// the detection delay), translate to physical link IDs, then encode
		// port indices against the physical graph — data packets index the
		// physical out-lists at every hop.
		st := r.fabric.Load()
		if st.Dead[f.info.Src] || st.Dead[f.info.Dst] {
			return // crashed endpoint; the abort lands with the swap
		}
		pathBuf = st.Tab.AppendPath(pathBuf[:0], f.info.Protocol, f.info.Src, f.info.Dst, rng)
		path := pathBuf
		st.PhysInPlace(path)
		portBuf = portBuf[:0]
		var err error
		portBuf, err = r.tab.AppendPortRoute(portBuf, path)
		if err != nil {
			panic(err)
		}
		route, err := wire.PackRoute(portBuf)
		if err != nil {
			panic(err)
		}
		h = wire.DataHeader{
			RLen:  uint8(len(portBuf)),
			RIdx:  1, // the sender consumes hop 0 by picking the first port
			Flow:  f.info.ID,
			Src:   uint16(f.info.Src),
			Dst:   uint16(f.info.Dst),
			Seq:   seq,
			PLen:  uint16(payload),
			Route: route,
		}
		// The packet buffer is an mbuf-pool segment: one MTU packet fits a
		// single 2 KiB segment, so EncodeData appends into seg.data without
		// growth, and whoever terminates the packet releases the segment.
		// A refill asks for no more segments than the flow has packets left.
		seg := r.pool.take(&cache, int((remaining+mtuPayload-1)/mtuPayload))
		buf, err := wire.EncodeData(seg.data[:0], &h, zeroPayload[:payload])
		if err != nil {
			panic(err)
		}
		seg.n = len(buf)
		pkt := emuPkt{buf: buf, seg: seg}
		// Blocking send into the first-hop port: NIC back-pressure. A dead
		// or lossy first hop consumes the packet without queueing it (the
		// NIC "sent" it onto the failed cable), so pacing still advances.
		p := r.ports[path[0]]
		if r.lossy(p) {
			r.drops.Add(1)
			r.pool.release(nil, pkt)
		} else {
			select {
			case p.ch <- pkt:
			default: // full port: block, but give way to shutdown and abort
				select {
				case p.ch <- pkt:
				case <-done:
					r.pool.release(nil, pkt)
					return
				case <-f.aborted:
					r.pool.release(nil, pkt)
					return
				}
			}
			p.queuedPkt(len(buf))
		}
		seq++
		remaining -= payload
		sentBits += float64(payload * 8)

		now := r.clk.now()
		if floor := now.Add(-maxBurst); next.Before(floor) {
			next = floor
		}
		next = next.Add(time.Duration(float64(len(buf)*8) / rate * float64(time.Second)))
		if wait := next.Sub(now); wait > 500*time.Microsecond {
			select {
			case <-r.clk.after(wait):
			case <-done:
				return
			}
		}
	}
	// Sender done: finish the flow in the local view and broadcast finish.
	if f.Abandoned() {
		return // purged by the fabric swap; no finish to announce
	}
	n.mu.Lock()
	b := n.Finish(f)
	n.mu.Unlock()
	r.flood(b)
}

// diverges reports whether a new demand estimate differs enough from the
// advertised one to justify a broadcast (>15% relative, or a transition
// to/from unlimited).
func diverges(old, new uint32) bool {
	if old == new {
		return false
	}
	if old == core.UnlimitedDemand || new == core.UnlimitedDemand {
		return true
	}
	lo, hi := old, new
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(hi-lo) > 0.15*float64(lo)
}

// ViewLen reports how many flows a node currently sees (for tests).
func (r *Rack) ViewLen(node topology.NodeID) int {
	n := r.nodes[node]
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.vis.Len(0)
}

// FlowDemandAt reports the demand (Kbps) that a node's view holds for a
// flow, and whether the view contains the flow at all.
func (r *Rack) FlowDemandAt(node topology.NodeID, id wire.FlowID) (uint32, bool) {
	n := r.nodes[node]
	n.mu.Lock()
	defer n.mu.Unlock()
	info, ok := n.vis.Get(0, id)
	return info.DemandKbps, ok
}
