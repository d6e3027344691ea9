package topology

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// BroadcastTree is a shortest-path spanning tree rooted at Root, used to
// broadcast flow events across the rack (§3.2). Children(v) lists the links
// on which v forwards a copy of a broadcast packet; leaves have none. Depth
// is the maximum hop count from Root to any node, i.e. the broadcast time
// the construction minimises.
type BroadcastTree struct {
	Root  NodeID
	ID    uint8 // tree identifier, carried in the broadcast header
	Depth int

	kids LinkCSR // a window of the arrays all of Root's trees share
}

// Children returns the links v forwards a broadcast on (read-only).
func (t *BroadcastTree) Children(v NodeID) []LinkID { return t.kids.At(v) }

// TotalEdges returns the number of tree edges (n-1 for a spanning tree).
func (t *BroadcastTree) TotalEdges() int { return len(t.kids.links) }

// LinkLoad returns, per directed link, how many copies of one broadcast
// packet traverse it (0 or 1 for a tree). Used to study broadcast load
// balance across trees.
func (t *BroadcastTree) LinkLoad(numLinks int) []int {
	load := make([]int, numLinks)
	for _, lid := range t.kids.links {
		load[lid]++
	}
	return load
}

// BuildBroadcastTrees constructs `count` distinct shortest-path broadcast
// trees rooted at src by breadth-first traversal with randomised parent
// choice (§3.2: "we enumerate multiple broadcast trees for each source by
// traversing the rack's topology in a breadth-first fashion"). Every tree
// is a spanning tree in which each node sits at its BFS distance from src,
// so broadcast time is minimal. rngSeed makes construction deterministic.
//
// It panics if count is outside [1, 256) since the wire format carries the
// tree ID in one byte.
func BuildBroadcastTrees(g *Graph, src NodeID, count int, rngSeed int64) []*BroadcastTree {
	return buildBroadcastTrees(g, src, count, rngSeed, new(treeScratch))
}

// treeScratch is the build's working memory. The FIB keeps one across its
// sources, so a build allocates only what the trees retain.
type treeScratch struct {
	cand  LinkCSR    // per vertex, the in-links from a vertex one hop nearer src
	picks []LinkID   // the tree being built: chosen parent link per vertex, -1 = none
	next  []int32    // per parent, where its next child link goes
	rng   *rand.Rand // reseeded per source: Seed(s) restarts the stream rand.NewSource(s) would
}

// buildBroadcastTrees finds every vertex's shortest-path parent candidates
// once — they depend on the source alone — and then draws each tree from
// them: one rng.Intn per reachable non-root vertex, in vertex order, tree
// after tree. That draw sequence defines the trees (a source's trees are a
// function of rngSeed only), so it must not change. All trees of the source
// are windows of one offset array and one link array.
func buildBroadcastTrees(g *Graph, src NodeID, count int, rngSeed int64, sc *treeScratch) []*BroadcastTree {
	if count < 1 || count > 255 {
		panic(fmt.Sprintf("topology: broadcast tree count %d out of [1,255]", count))
	}
	nv := g.Vertices()
	// The FIB builds a source's trees lazily on first lookup, so the
	// emulator's data path reaches this function — but only on the
	// once-per-source miss path; the steady-state hit path never gets here,
	// so the construction allocations below are amortised.
	if sc.picks == nil {
		sc.cand.off, sc.picks, sc.next = make([]int32, nv+1), make([]LinkID, nv), make([]int32, nv)
		sc.rng = rand.New(rand.NewSource(rngSeed))
	} else {
		sc.rng.Seed(rngSeed)
	}
	rng := sc.rng
	dist := g.dist[src]
	sc.cand.links = sc.cand.links[:0]
	depth, edges := 0, 0
	for v := 0; v < nv; v++ {
		// dv is 0 at the root and negative at unreachable vertices: both stay
		// out of the tree, with no candidates.
		if dv := dist[v]; dv > 0 {
			if int(dv) > depth {
				depth = int(dv)
			}
			edges++
			for _, lid := range g.in[v] {
				if dist[g.links[lid].From] == dv-1 {
					sc.cand.links = append(sc.cand.links, lid)
				}
			}
			if len(sc.cand.links) == int(sc.cand.off[v]) {
				panic("topology: BFS invariant violated: reachable node without shortest-path parent")
			}
		}
		sc.cand.off[v+1] = int32(len(sc.cand.links))
	}

	off, links := make([]int32, count*(nv+1)), make([]LinkID, count*edges)
	trees, out := make([]BroadcastTree, count), make([]*BroadcastTree, count)
	picks, next := sc.picks, sc.next
	for i := range trees {
		kids := LinkCSR{off: off[i*(nv+1) : (i+1)*(nv+1)], links: links[i*edges : (i+1)*edges]}
		// Pick parents and count each parent's children into off[parent+1] ...
		for v := range picks {
			picks[v] = -1
			if c := sc.cand.At(NodeID(v)); len(c) > 0 {
				picks[v] = c[rng.Intn(len(c))]
				kids.off[g.links[picks[v]].From+1]++
			}
		}
		// ... turn the counts into offsets ...
		for p := range next {
			next[p] = kids.off[p]
			kids.off[p+1] += kids.off[p]
		}
		// ... and file the picks under their parents. Ascending vertex order
		// is the order of a parent's links.
		for _, pick := range picks {
			if pick >= 0 {
				p := g.links[pick].From
				kids.links[next[p]] = pick
				next[p]++
			}
		}
		trees[i] = BroadcastTree{Root: src, ID: uint8(i), Depth: depth, kids: kids}
		out[i] = &trees[i]
	}
	return out
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
// order, so a lazy FIB forwards byte-identically to the old eager one.
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

	mu      sync.Mutex                         // first build of a source's trees
	scratch treeScratch                        // the builds' working memory, under mu
	slots   []atomic.Pointer[[]*BroadcastTree] // per source; nil until built, immutable after
}

// NewBroadcastFIB prepares a FIB serving treesPerSource broadcast trees for
// every endpoint node; trees are built per source on first use.
func NewBroadcastFIB(g *Graph, treesPerSource int, rngSeed int64) *BroadcastFIB {
	return &BroadcastFIB{
		g:              g,
		treesPerSource: treesPerSource,
		rngSeed:        rngSeed,
		slots:          make([]atomic.Pointer[[]*BroadcastTree], g.Nodes()),
	}
}

// lookup returns the tree for <src, treeID>, building src's trees on first
// access.
func (f *BroadcastFIB) lookup(src NodeID, treeID uint8) (*BroadcastTree, bool) {
	if int(src) < 0 || int(src) >= len(f.slots) {
		return nil, false
	}
	trees := f.slots[src].Load()
	if trees == nil {
		trees = f.build(src)
	}
	if int(treeID) >= len(*trees) {
		return nil, false
	}
	return (*trees)[treeID], true
}

// build constructs and publishes src's trees, once: concurrent first
// lookups of one source serialise on the mutex and all but the first find
// the slot filled.
func (f *BroadcastFIB) build(src NodeID) *[]*BroadcastTree {
	f.mu.Lock()
	defer f.mu.Unlock()
	if trees := f.slots[src].Load(); trees != nil {
		return trees
	}
	trees := buildBroadcastTrees(f.g, src, f.treesPerSource, f.rngSeed+int64(src), &f.scratch)
	f.slots[src].Store(&trees)
	return &trees
}

// NextHops returns the links on which node `at` must forward a broadcast
// packet originated by src on tree treeID. It returns an empty slice (forward
// nowhere) for leaves, and ok=false for an unknown <src, tree> pair.
func (f *BroadcastFIB) NextHops(src NodeID, treeID uint8, at NodeID) ([]LinkID, bool) {
	t, ok := f.lookup(src, treeID)
	if !ok {
		return nil, false
	}
	return t.Children(at), true
}

// Tree returns the broadcast tree for <src, treeID>.
func (f *BroadcastFIB) Tree(src NodeID, treeID uint8) (*BroadcastTree, bool) {
	return f.lookup(src, treeID)
}

// TreesPerSource reports how many trees exist for src.
func (f *BroadcastFIB) TreesPerSource(src NodeID) int {
	if int(src) < 0 || int(src) >= len(f.slots) {
		return 0
	}
	return f.treesPerSource
}
