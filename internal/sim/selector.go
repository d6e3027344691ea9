package sim

import (
	"r2c2/internal/core"
	"r2c2/internal/genetic"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/wire"
)

// SelectorConfig drives the live routing-protocol selection of §3.4:
// periodically, one node examines the long flows in its view, searches for
// the per-flow protocol assignment that maximises aggregate throughput
// with the genetic heuristic, and advertises the winning assignment.
type SelectorConfig struct {
	// Period between selection runs. The paper adapts "every few seconds
	// or minutes"; simulations compress this.
	Period simtime.Time
	// MinAge: only flows older than this are re-routed ("as flows age,
	// their routing can be adapted"); younger flows stay minimal.
	MinAge simtime.Time
	// Protocols to choose among (default RPS and VLB, as in Figure 18).
	Protocols []routing.Protocol
	// GA tuning; zero values use the paper's parameters.
	GA genetic.Config
	// MinGain: fraction of aggregate-throughput improvement required
	// before new assignments are broadcast ("If a significant improvement
	// is possible"). Default 0.01.
	MinGain float64
}

func (c *SelectorConfig) defaults() {
	if c.Period == 0 {
		c.Period = 100 * simtime.Millisecond
	}
	if c.MinAge == 0 {
		c.MinAge = 10 * simtime.Millisecond
	}
	if len(c.Protocols) == 0 {
		c.Protocols = []routing.Protocol{routing.RPS, routing.VLB}
	}
	if c.MinGain == 0 {
		c.MinGain = 0.01
	}
}

// Selector periodically re-optimises the routing protocols of long flows.
// For simplicity the prototype runs it at a single node (the paper does the
// same, noting a token-scheme decentralisation); because the utility is
// global, not selfish, there is no price-of-anarchy loss (§3.4).
type Selector struct {
	r   *R2C2
	cfg SelectorConfig

	// Reassignments counts flows whose protocol actually changed.
	Reassignments uint64

	// seen lists the flows of the latest round's view with the time the
	// selector first saw each, in the view's order: ascending flow ID.
	seen []seenFlow
	view []core.FlowInfo // the round's view, reused
}

type seenFlow struct {
	id    wire.FlowID
	first simtime.Time
}

// NewSelector attaches a routing selector to a running R2C2 stack. Call
// Start to arm it.
func NewSelector(r *R2C2, cfg SelectorConfig) *Selector {
	cfg.defaults()
	return &Selector{r: r, cfg: cfg}
}

// Start arms the periodic selection.
func (s *Selector) Start() {
	s.r.Net.Eng.After(s.cfg.Period, s.tick)
}

func (s *Selector) tick() {
	s.selectOnce()
	s.r.Net.Eng.After(s.cfg.Period, s.tick)
}

// selectOnce performs one §3.4 selection round over the view of node 0.
func (s *Selector) selectOnce() {
	now := s.r.Net.Eng.Now()
	s.view = s.r.vis.AppendFlows(s.view[:0], s.r.nodes[0].Col)

	// Gather eligible long flows (old enough) and their current genes.
	var flows []routing.Demand
	var ids []wire.FlowID
	var current []uint8
	// One merge of the view with the previous round's list, both in flow-ID
	// order: a flow new to the view starts ageing now, and the age of one
	// that has left it (finished) is dropped with it.
	prev, seen := s.seen, make([]seenFlow, 0, len(s.view))
	for _, info := range s.view {
		for len(prev) > 0 && prev[0].id < info.ID {
			prev = prev[1:]
		}
		if len(prev) == 0 || prev[0].id != info.ID {
			seen = append(seen, seenFlow{info.ID, now})
			continue
		}
		first := prev[0].first
		seen = append(seen, prev[0])
		if now-first < s.cfg.MinAge {
			continue
		}
		gene := -1
		for gi, p := range s.cfg.Protocols {
			if p == info.Protocol {
				gene = gi
				break
			}
		}
		if gene < 0 {
			gene = 0 // flow on a protocol outside the choice set: treat as first
		}
		flows = append(flows, routing.Demand{Src: info.Src, Dst: info.Dst, Rate: 1})
		ids = append(ids, info.ID)
		current = append(current, uint8(gene))
	}
	s.seen = seen
	if len(flows) < 2 {
		return
	}

	fitness := genetic.AggregateFitness(s.r.Tab,
		s.r.Net.Cfg.LinkGbps*1e9, s.r.Cfg.Headroom, flows, s.cfg.Protocols)
	before := fitness(current)
	res := genetic.Optimize(s.cfg.GA, len(flows), len(s.cfg.Protocols), current, fitness)
	if before <= 0 || res.Utility < before*(1+s.cfg.MinGain) {
		return // not a significant improvement; keep current routing
	}

	// Advertise the changes. The wire format batches up to 299 {flow, rp}
	// pairs per 1500-byte routing update (§3.4); the simulator applies the
	// same batching for its control-traffic accounting, then updates each
	// source through the regular route-change broadcast.
	var pairs []wire.RoutingPair
	for i, id := range ids {
		newP := s.cfg.Protocols[res.Assignment[i]]
		if current[i] == res.Assignment[i] {
			continue
		}
		pairs = append(pairs, wire.RoutingPair{Flow: id, RP: uint8(newP)})
		s.r.SetProtocol(id, newP)
		s.Reassignments++
	}
	for len(pairs) > 0 {
		n := len(pairs)
		if n > wire.MaxRoutingPairs {
			n = wire.MaxRoutingPairs
		}
		if _, err := wire.EncodeRoutingUpdate(pairs[:n]); err != nil {
			panic(err)
		}
		pairs = pairs[n:]
	}
}
