package fluid

import (
	"math"
	"testing"

	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/stats"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

func table(t testing.TB, k, dims int) *routing.Table {
	t.Helper()
	g, err := topology.NewTorus(k, dims)
	if err != nil {
		t.Fatal(err)
	}
	return routing.NewTable(g)
}

func workload(g *topology.Graph, count int, tau simtime.Time, seed int64) []trafficgen.Arrival {
	return trafficgen.Poisson(trafficgen.PoissonConfig{
		Nodes:        g.Nodes(),
		MeanInterval: tau,
		Count:        count,
		Seed:         seed,
	})
}

func TestFluidAllFlowsComplete(t *testing.T) {
	tab := table(t, 4, 2)
	arrivals := workload(tab.Graph(), 500, 10*simtime.Microsecond, 1)
	res := Run(Config{
		Tab: tab, Protocol: routing.RPS,
		CapacityBits: 10e9, Headroom: 0.05,
		Recompute: 100 * simtime.Microsecond,
	}, arrivals)
	for i, f := range res.Flows {
		if f.Ended <= f.Started {
			t.Fatalf("flow %d never completed", i)
		}
		if f.AvgRateBps <= 0 {
			t.Fatalf("flow %d has non-positive avg rate", i)
		}
	}
	if res.Recomputations == 0 {
		t.Fatal("no recomputations")
	}
	if len(res.Ticks) == 0 {
		t.Fatal("no tick stats")
	}
}

func TestFluidIdealMode(t *testing.T) {
	tab := table(t, 4, 2)
	arrivals := workload(tab.Graph(), 200, 10*simtime.Microsecond, 2)
	res := Run(Config{
		Tab: tab, Protocol: routing.RPS,
		CapacityBits: 10e9, Headroom: 0.05,
		Recompute: 0, // ideal
	}, arrivals)
	for i, f := range res.Flows {
		if f.Ended <= f.Started {
			t.Fatalf("flow %d never completed", i)
		}
	}
	// Ideal mode recomputes on every arrival and departure burst.
	if res.Recomputations < 200 {
		t.Fatalf("ideal mode recomputed only %d times", res.Recomputations)
	}
}

// A lone flow must drain at the full headroom-adjusted fabric rate the
// allocator gives it, making FCT predictable.
func TestFluidSingleFlowTiming(t *testing.T) {
	tab := table(t, 4, 2)
	arrivals := []trafficgen.Arrival{{At: 0, Src: 0, Dst: 1, SizeBytes: 1 << 20, Weight: 1}}
	res := Run(Config{
		Tab: tab, Protocol: routing.DOR,
		CapacityBits: 10e9, Headroom: 0.05,
		Recompute: 0,
	}, arrivals)
	f := res.Flows[0]
	wantSecs := float64(1<<20*8) / 9.5e9
	if math.Abs(f.Ended.Seconds()-wantSecs) > wantSecs*0.01 {
		t.Fatalf("FCT = %v s, want %v s", f.Ended.Seconds(), wantSecs)
	}
}

// The Figure 15 relationship: rate error grows with ρ.
func TestRateErrorGrowsWithInterval(t *testing.T) {
	tab := table(t, 4, 2)
	arrivals := workload(tab.Graph(), 800, 5*simtime.Microsecond, 3)
	cfg := Config{Tab: tab, Protocol: routing.RPS, CapacityBits: 10e9, Headroom: 0.05}

	ideal := Run(cfg, arrivals)
	med := func(rho simtime.Time) float64 {
		c := cfg
		c.Recompute = rho
		var s stats.Sample
		s.AddAll(RateErrorFiltered(ideal, Run(c, arrivals), 0))
		return s.Median()
	}
	small := med(50 * simtime.Microsecond)
	large := med(2 * simtime.Millisecond)
	if small > large {
		t.Fatalf("median rate error shrank with larger rho: %v -> %v", small, large)
	}
	if large == 0 {
		t.Fatal("large interval shows zero rate error; periodic path inert")
	}
}

// Identical ideal runs have zero rate error (self-consistency).
func TestRateErrorSelfZero(t *testing.T) {
	tab := table(t, 3, 2)
	arrivals := workload(tab.Graph(), 100, 10*simtime.Microsecond, 4)
	cfg := Config{Tab: tab, Protocol: routing.RPS, CapacityBits: 10e9}
	a := Run(cfg, arrivals)
	b := Run(cfg, arrivals)
	for i, e := range RateErrorFiltered(a, b, 0) {
		if e != 0 {
			t.Fatalf("flow %d: error %v between identical runs", i, e)
		}
	}
}

func TestRateErrorMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RateErrorFiltered(&Result{Flows: make([]FlowResult, 1)}, &Result{}, 0)
}

func TestFluidValidation(t *testing.T) {
	tab := table(t, 3, 2)
	for name, f := range map[string]func(){
		"nil table":     func() { Run(Config{CapacityBits: 1}, []trafficgen.Arrival{{}}) },
		"no arrivals":   func() { Run(Config{Tab: tab, CapacityBits: 1}, nil) },
		"zero capacity": func() { Run(Config{Tab: tab}, []trafficgen.Arrival{{Src: 0, Dst: 1, SizeBytes: 1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
