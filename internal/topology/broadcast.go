package topology

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// BroadcastTree is a shortest-path spanning tree rooted at Root, used to
// broadcast flow events across the rack (§3.2). Children[v] lists the
// links on which v forwards a copy of a broadcast packet; leaves have no
// entries. Depth is the maximum hop count from Root to any node, i.e. the
// broadcast time the construction minimises.
type BroadcastTree struct {
	Root     NodeID
	ID       uint8 // tree identifier, carried in the broadcast header
	Children [][]LinkID
	Depth    int
}

// TotalEdges returns the number of tree edges (n-1 for a spanning tree).
func (t *BroadcastTree) TotalEdges() int {
	total := 0
	for _, c := range t.Children {
		total += len(c)
	}
	return total
}

// LinkLoad returns, per directed link, how many copies of one broadcast
// packet traverse it (0 or 1 for a tree). Used to study broadcast load
// balance across trees.
func (t *BroadcastTree) LinkLoad(numLinks int) []int {
	load := make([]int, numLinks)
	for _, children := range t.Children {
		for _, lid := range children {
			load[lid]++
		}
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
	if count < 1 || count > 255 {
		panic(fmt.Sprintf("topology: broadcast tree count %d out of [1,255]", count))
	}
	rng := rand.New(rand.NewSource(rngSeed))
	// The FIB builds a source's trees lazily on first lookup, which makes
	// this function reachable from the emulator's data-path hotpath root —
	// but only on the once-per-source miss path; the steady-state hit path
	// never gets here, so the construction allocations below are amortised.
	//lint:ignore alloc-hotpath once-per-source lazy tree construction; the FIB hit path is allocation-free
	trees := make([]*BroadcastTree, count)
	// Scratch shared by every tree of this source: per-vertex parent picks,
	// per-parent child counts, and the candidate buffer. Building a FIB
	// constructs sources × count trees, so per-vertex slice churn here
	// dominated the simulator's setup allocations.
	//lint:ignore alloc-hotpath once-per-source lazy tree construction; the FIB hit path is allocation-free
	scratch := &treeScratch{
		//lint:ignore alloc-hotpath once-per-source lazy tree construction; the FIB hit path is allocation-free
		picks: make([]LinkID, g.Vertices()),
		//lint:ignore alloc-hotpath once-per-source lazy tree construction; the FIB hit path is allocation-free
		counts: make([]int, g.Vertices()),
		//lint:ignore alloc-hotpath once-per-source lazy tree construction; the FIB hit path is allocation-free
		candidates: make([]LinkID, 0, 8),
	}
	for i := 0; i < count; i++ {
		trees[i] = buildOneTree(g, src, uint8(i), rng, scratch)
	}
	return trees
}

type treeScratch struct {
	picks      []LinkID // chosen parent link per vertex; -1 = not in tree
	counts     []int    // children per parent vertex
	candidates []LinkID
}

func buildOneTree(g *Graph, src NodeID, id uint8, rng *rand.Rand, sc *treeScratch) *BroadcastTree {
	//lint:ignore alloc-hotpath once-per-source lazy tree construction; the FIB hit path is allocation-free
	t := &BroadcastTree{
		Root: src,
		ID:   id,
		//lint:ignore alloc-hotpath once-per-source lazy tree construction; the FIB hit path is allocation-free
		Children: make([][]LinkID, g.Vertices()),
	}
	for v := range sc.picks {
		sc.picks[v] = -1
		sc.counts[v] = 0
	}
	// For each non-root vertex pick a random parent among its predecessors
	// at distance-1; this yields a shortest-path tree with randomised shape.
	depth := 0
	total := 0
	for v := 0; v < g.Vertices(); v++ {
		if NodeID(v) == src {
			continue
		}
		dv := g.Dist(src, NodeID(v))
		if dv < 0 {
			continue // unreachable vertices stay out of the tree
		}
		if dv > depth {
			depth = dv
		}
		candidates := sc.candidates[:0]
		for _, lid := range g.In(NodeID(v)) {
			p := g.Link(lid).From
			if g.Dist(src, p) == dv-1 {
				candidates = append(candidates, lid)
			}
		}
		sc.candidates = candidates[:0]
		if len(candidates) == 0 {
			panic("topology: BFS invariant violated: reachable node without shortest-path parent")
		}
		pick := candidates[rng.Intn(len(candidates))]
		sc.picks[v] = pick
		sc.counts[g.Link(pick).From]++
		total++
	}
	// Bucket the picks into child lists carved out of one backing array
	// instead of growing each parent's slice separately. Iterating vertices
	// in ascending order preserves the original per-parent link order.
	//lint:ignore alloc-hotpath once-per-source lazy tree construction; the FIB hit path is allocation-free
	flat := make([]LinkID, 0, total)
	off := 0
	for p := 0; p < g.Vertices(); p++ {
		if sc.counts[p] == 0 {
			continue
		}
		t.Children[p] = flat[off : off : off+sc.counts[p]]
		off += sc.counts[p]
	}
	for v := 0; v < g.Vertices(); v++ {
		if sc.picks[v] < 0 {
			continue
		}
		p := g.Link(sc.picks[v]).From
		t.Children[p] = append(t.Children[p], sc.picks[v])
	}
	t.Depth = depth
	return t
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

	mu    sync.Mutex                         // first build of a source's trees
	slots []atomic.Pointer[[]*BroadcastTree] // per source; nil until built, immutable after
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
	trees := BuildBroadcastTrees(f.g, src, f.treesPerSource, f.rngSeed+int64(src))
	f.slots[src].Store(&trees)
	return &trees
}

// NextHops returns the links on which node `at` must forward a broadcast
// packet originated by src on tree treeID. It returns nil (forward nowhere)
// for leaves, and ok=false for an unknown <src, tree> pair.
func (f *BroadcastFIB) NextHops(src NodeID, treeID uint8, at NodeID) ([]LinkID, bool) {
	t, ok := f.lookup(src, treeID)
	if !ok {
		return nil, false
	}
	return t.Children[at], true
}

// Tree returns the broadcast tree for <src, treeID>.
func (f *BroadcastFIB) Tree(src NodeID, treeID uint8) (*BroadcastTree, bool) {
	return f.lookup(src, treeID)
}

// TreesPerSource reports how many trees exist for src.
func (f *BroadcastFIB) TreesPerSource(src NodeID) int {
	n := 0
	for id := 0; id < 256; id++ {
		if _, ok := f.lookup(src, uint8(id)); !ok {
			break
		}
		n++
	}
	return n
}
