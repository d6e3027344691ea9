package routing

import "math/rand"

// Per-entity RNG streams, one constructor for both backends. The simulator
// runs one independent stream per consuming entity (per source node for
// route sampling, per link for loss rolls) instead of one global stream
// whose interleaving would depend on global event order, so a rack
// partition draws the very same numbers as one shard owning the whole
// fabric. The emulator gives every flow's sender its own stream.
//
// The streams are splitmix64 generators: a full-period 64-bit sequence
// whose state is one word, versus the ~5 KB lagged-Fibonacci state
// rand.NewSource carries and the 607 words it computes to seed it. At one
// stream per node, 10k nodes would otherwise pin ~50 MB of generator state
// per shard set; at one per emulated flow, seeding would dominate a short
// flow's fixed cost.

// NewStream returns the stream of entity idx under the run seed.
func NewStream(seed, idx int64) *rand.Rand {
	return rand.New(&splitmix64{state: streamSeed(seed, idx)})
}

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
