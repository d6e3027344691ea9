package routing

import (
	"math/rand"
	"sync"
	"testing"

	"r2c2/internal/topology"
)

// The emulator calls one shared Table from every link and sender goroutine
// concurrently; φ computation, caching and path sampling must be
// race-free. Run with -race.
func TestTableConcurrentAccess(t *testing.T) {
	g := torus(t, 4, 3)
	tab := NewTable(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			protos := []Protocol{RPS, DOR, VLB, WLB}
			for i := 0; i < 300; i++ {
				src := topology.NodeID(rng.Intn(g.Nodes()))
				dst := topology.NodeID(rng.Intn(g.Nodes()))
				if src == dst {
					continue
				}
				p := protos[rng.Intn(len(protos))]
				phi := tab.Phi(p, src, dst)
				if len(phi.Links) == 0 {
					t.Error("empty phi")
					return
				}
				path := tab.AppendPath(nil, p, src, dst, rng)
				if _, err := tab.AppendPortRoute(nil, path); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
