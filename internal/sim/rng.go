package sim

import (
	"math/rand"

	"r2c2/internal/topology"
)

// Per-entity RNG streams. A rack partition gives every shard its own
// deterministic randomness, and one shard owning the whole fabric must draw
// the very same numbers for Results to stay byte-identical — so both run
// one independent stream per consuming entity (per source node for route
// sampling, per link for loss rolls) instead of one global stream whose
// interleaving would depend on global event order.
//
// The streams are splitmix64 generators: a full-period 64-bit sequence
// whose state is one word, versus the ~5 KB lagged-Fibonacci state
// rand.NewSource carries — at one stream per node, 10k nodes would
// otherwise pin ~50 MB of generator state per shard set.

// splitmix64 is a rand.Source64 implementing Sebastiano Vigna's SplitMix64.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

// streamSeed derives the state of one entity's stream from the run seed and
// the entity's index, spreading consecutive indices across the state space.
func streamSeed(seed int64, idx int64) uint64 {
	return uint64(seed) ^ (uint64(idx)+1)*0x9E3779B97F4A7C15
}

// newNodeRng returns the route-sampling stream of one source node.
func newNodeRng(seed int64, node topology.NodeID) *rand.Rand {
	return rand.New(&splitmix64{state: streamSeed(seed, int64(node))})
}

// newLinkRng returns the loss-roll stream of one lossy link.
func newLinkRng(seed int64, lid topology.LinkID) *rand.Rand {
	return rand.New(&splitmix64{state: streamSeed(seed, int64(lid))})
}
