package faults

import (
	"fmt"
	"math/rand"
	"time"

	"r2c2/internal/topology"
)

// GenConfig parameterises Generate.
type GenConfig struct {
	Seed int64
	// Horizon is the injection window: every fault lands inside it.
	Horizon time.Duration
	// Flaps is the number of link down+repair pairs (distinct cables).
	Flaps int
	// DownFor is how long a flapped cable stays down.
	DownFor time.Duration
	// Detect is the detection delay applied to every generated event.
	Detect time.Duration
	// Crash adds one node crash.
	Crash bool
	// DropLinks cables get a DropProb random-drop probability from t=0.
	DropLinks int
	DropProb  float64
}

// defaults fills the zero values with a small-but-adverse schedule shape.
func (c *GenConfig) defaults() {
	if c.Horizon == 0 {
		c.Horizon = 100 * time.Millisecond
	}
	if c.Flaps == 0 && !c.Crash && c.DropLinks == 0 {
		c.Flaps = 2
		c.Crash = true
	}
	if c.DownFor == 0 {
		c.DownFor = c.Horizon / 4
	}
	if c.Detect == 0 {
		c.Detect = c.Horizon / 50
	}
	if c.DropLinks > 0 && c.DropProb == 0 {
		c.DropProb = 0.01
	}
}

// Generate builds a random fault schedule over g from a seeded RNG. The
// result is deterministic in (g, cfg) and always Validate-clean: flapped
// cables are chosen so that the union of every flapped cable plus the
// crashed node keeps the rack connected, which (connectivity being
// monotone in the failed set) makes every interleaving of the flaps safe.
func Generate(g *topology.Graph, cfg GenConfig) (Schedule, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sched Schedule

	var dead topology.NodeID = -1
	deadSet := make([]bool, g.Nodes())
	if cfg.Crash {
		dead = topology.NodeID(rng.Intn(g.Nodes()))
		deadSet[dead] = true
		at := cfg.Horizon/4 + time.Duration(rng.Int63n(int64(cfg.Horizon/2)))
		sched.Events = append(sched.Events, Event{
			At: at, Kind: NodeDown, Node: dead, Detect: cfg.Detect,
		})
	}

	// Candidate cables: one canonical direction per physical pair, not
	// incident to the crashed node (its ports die with it; repairing a
	// dead node's cable is meaningless and both backends refuse it).
	type cable struct{ a, b topology.NodeID }
	var cables []cable
	seen := map[cable]bool{}
	for lid := 0; lid < g.NumLinks(); lid++ {
		l := g.Link(topology.LinkID(lid))
		c := cable{l.From, l.To}
		if c.a > c.b {
			c.a, c.b = c.b, c.a
		}
		if seen[c] || c.a == dead || c.b == dead {
			continue
		}
		seen[c] = true
		cables = append(cables, c)
	}
	rng.Shuffle(len(cables), func(i, j int) { cables[i], cables[j] = cables[j], cables[i] })

	// Greedily keep cables whose removal — together with everything
	// already picked and the crashed node — leaves the rack connected.
	union := make([]bool, g.NumLinks())
	picked := 0
	for _, c := range cables {
		if picked >= cfg.Flaps {
			break
		}
		ab, _ := g.LinkBetween(c.a, c.b)
		ba, _ := g.LinkBetween(c.b, c.a)
		union[ab], union[ba] = true, true
		if _, _, err := g.WithoutLinksAndNodes(union, deadSet); err != nil {
			union[ab], union[ba] = false, false
			continue
		}
		picked++
		at := cfg.Horizon/10 + time.Duration(rng.Int63n(int64(cfg.Horizon*6/10)))
		sched.Events = append(sched.Events,
			Event{At: at, Kind: LinkDown, A: c.a, B: c.b, Detect: cfg.Detect},
			Event{At: at + cfg.DownFor, Kind: LinkRepair, A: c.a, B: c.b, Detect: cfg.Detect},
		)
	}
	if picked < cfg.Flaps {
		return Schedule{}, fmt.Errorf("faults: only %d of %d requested flaps fit without partitioning the rack", picked, cfg.Flaps)
	}

	// Lossy cables from t=0 (may overlap flapped cables; a downed link
	// drops everything anyway).
	for i := 0; i < cfg.DropLinks && i < len(cables); i++ {
		c := cables[rng.Intn(len(cables))]
		sched.Events = append(sched.Events, Event{
			At: 0, Kind: LinkDrop, A: c.a, B: c.b, DropProb: cfg.DropProb,
		})
	}

	sched.Events = sched.Sorted()
	if err := sched.Validate(g); err != nil {
		return Schedule{}, fmt.Errorf("faults: generated schedule invalid (bug): %w", err)
	}
	return sched, nil
}
