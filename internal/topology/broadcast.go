package topology

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// BroadcastTree is a shortest-path spanning tree rooted at Root, used to
// broadcast flow events across the rack (§3.2). BroadcastFIB.AppendNextHops
// lists the links on which a vertex forwards a copy of a broadcast packet;
// leaves have none. Depth is the maximum hop count from Root to any node,
// i.e. the broadcast time the construction minimises.
type BroadcastTree struct {
	Root  NodeID
	Depth int

	kids PortMasks // a window of the mask array all of Root's trees share
}

// sourceTrees is one source's trees. Their masks are windows of one array:
// tree i's row for vertex v starts at byte (i*Vertices() + v) * maskBytes.
type sourceTrees struct {
	masks []byte
	trees []BroadcastTree
}

// treeScratch is the build's working memory. The FIB keeps one across its
// sources, so a build allocates only what the trees retain.
type treeScratch struct {
	bfs     bfsScratch // the search from the source
	candOff []int32    // vertex v's candidates are cand[candOff[v]:candOff[v+1]]
	cand    []LinkID   // per vertex, the in-links from a vertex one hop nearer src
	rng     *rand.Rand // reseeded per source: Seed(s) restarts the stream rand.NewSource(s) would
}

// buildBroadcastTrees constructs `count` distinct shortest-path broadcast
// trees rooted at src by breadth-first traversal with randomised parent
// choice (§3.2: "we enumerate multiple broadcast trees for each source by
// traversing the rack's topology in a breadth-first fashion"). Every tree is
// a spanning tree in which each node sits at its BFS distance from src, so
// broadcast time is minimal. It panics if count is outside [1, 256), since
// the wire format carries the tree ID in one byte.
//
// It finds every vertex's shortest-path parent candidates once — they depend
// on the source alone — and then draws each tree from them: one rng.Intn per
// reachable non-root vertex, in vertex order, tree after tree. That draw
// sequence defines the trees (a source's trees are a function of rngSeed
// only), so it must not change. A draw sets the picked link's port bit in
// its parent's row.
func buildBroadcastTrees(g *Graph, src NodeID, count int, rngSeed int64, sc *treeScratch) *sourceTrees {
	if count < 1 || count > 255 {
		panic(fmt.Sprintf("topology: broadcast tree count %d out of [1,255]", count))
	}
	nv := g.Vertices()
	// The FIB builds a source's trees lazily on first lookup, so the
	// emulator's data path reaches this function — but only on the
	// once-per-source miss path; the steady-state hit path never gets here,
	// so the construction allocations below are amortised.
	if sc.candOff == nil {
		sc.candOff = make([]int32, nv+1)
		sc.rng = rand.New(rand.NewSource(rngSeed))
	} else {
		sc.rng.Seed(rngSeed)
	}
	rng := sc.rng
	dist := g.search(&sc.bfs, src, false, -1).dist
	sc.cand = sc.cand[:0]
	depth := 0
	for v := 0; v < nv; v++ {
		// dv is 0 at the root and negative at unreachable vertices: both stay
		// out of the tree, with no candidates.
		if dv := dist[v]; dv > 0 {
			depth = max(depth, int(dv))
			for j := g.inOff[v]; j < g.inOff[v+1]; j++ {
				if dist[g.inFrom[j]] == dv-1 {
					sc.cand = append(sc.cand, g.inLinks[j])
				}
			}
			if len(sc.cand) == int(sc.candOff[v]) {
				panic("topology: BFS invariant violated: reachable node without shortest-path parent")
			}
		}
		sc.candOff[v+1] = int32(len(sc.cand))
	}

	size := nv * g.maskBytes
	st := &sourceTrees{masks: make([]byte, count*size), trees: make([]BroadcastTree, count)}
	for i := range st.trees {
		kids := g.newPortMasks(st.masks[i*size : (i+1)*size])
		for v := 0; v < nv; v++ {
			if c := sc.cand[sc.candOff[v]:sc.candOff[v+1]]; len(c) > 0 {
				pick := c[rng.Intn(len(c))]
				kids.set(g.links[pick].From, g.Port(pick))
			}
		}
		st.trees[i] = BroadcastTree{Root: src, Depth: depth, kids: kids}
	}
	return st
}

// BroadcastFIB is the broadcast forwarding information base of §3.2: a
// lookup keyed by <src-address, tree-id> yielding the set of next-hop links
// a broadcast packet must be forwarded on from a given node. One FIB is
// shared by all nodes (each node consults only its own row).
//
// Trees are built lazily, one source at a time on first lookup: an eager
// FIB is O(sources × trees × vertices) memory — prohibitive at the 10k-node
// multi-rack scale where only the sources that actually broadcast need
// trees. A source's trees are seeded by rngSeed+src independent of build
// order, so a lazy FIB forwards byte-identically to the old eager one. A
// built source costs one out-port mask per tree and vertex (PortMasks), all
// in one array its slot reaches directly.
//
// A FIB is safe for concurrent use and its hit path takes no lock: the
// emulator's node goroutines and the sharded simulator's workers all share
// one. Each source owns a dense slot published with an atomic pointer once
// its trees are built; the mutex serialises first builds only, so a lookup
// of a built source — hit or miss — neither locks nor builds again.
type BroadcastFIB struct {
	g              *Graph
	treesPerSource int
	rngSeed        int64

	mu      sync.Mutex                    // first build of a source's trees
	scratch treeScratch                   // the builds' working memory, under mu
	slots   []atomic.Pointer[sourceTrees] // per source; nil until built, immutable after
}

// NewBroadcastFIB prepares a FIB serving treesPerSource broadcast trees for
// every endpoint node; trees are built per source on first use.
func NewBroadcastFIB(g *Graph, treesPerSource int, rngSeed int64) *BroadcastFIB {
	return &BroadcastFIB{
		g:              g,
		treesPerSource: treesPerSource,
		rngSeed:        rngSeed,
		slots:          make([]atomic.Pointer[sourceTrees], g.Nodes()),
	}
}

// lookup returns the trees of src, building them on first access, or nil
// for an unknown <src, tree> pair.
func (f *BroadcastFIB) lookup(src NodeID, treeID uint8) *sourceTrees {
	if uint(src) >= uint(len(f.slots)) || int(treeID) >= f.treesPerSource {
		return nil
	}
	if st := f.slots[src].Load(); st != nil {
		return st
	}
	return f.build(src)
}

// build constructs and publishes src's trees, once: concurrent first
// lookups of one source serialise on the mutex and all but the first find
// the slot filled.
func (f *BroadcastFIB) build(src NodeID) *sourceTrees {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st := f.slots[src].Load(); st != nil {
		return st
	}
	st := buildBroadcastTrees(f.g, src, f.treesPerSource, f.rngSeed+int64(src), &f.scratch)
	f.slots[src].Store(st)
	return st
}

// AppendNextHops appends to buf the links on which node `at` must forward a
// broadcast packet originated by src on tree treeID, in port order, and
// returns the extended slice: nothing for a leaf. ok is false, and buf comes
// back unextended, for an unknown <src, tree> pair.
func (f *BroadcastFIB) AppendNextHops(buf []LinkID, src NodeID, treeID uint8, at NodeID) (hops []LinkID, ok bool) {
	st := f.lookup(src, treeID)
	if st == nil {
		return buf, false
	}
	g := f.g
	row := (int(treeID)*g.total + int(at)) * g.maskBytes
	return appendPorts(buf, g.Out(at), st.masks[row:row+g.maskBytes]), true
}

// NextHops is AppendNextHops into a fresh slice.
func (f *BroadcastFIB) NextHops(src NodeID, treeID uint8, at NodeID) ([]LinkID, bool) {
	return f.AppendNextHops(nil, src, treeID, at)
}

// Tree returns the broadcast tree for <src, treeID>.
func (f *BroadcastFIB) Tree(src NodeID, treeID uint8) (*BroadcastTree, bool) {
	st := f.lookup(src, treeID)
	if st == nil {
		return nil, false
	}
	return &st.trees[treeID], true
}
