package experiments

import (
	"testing"

	"r2c2/internal/simtime"
)

// Cross-validation at reduced scale: the emulator (wall clock, real
// goroutine concurrency) and the simulator (virtual clock) replay the same
// flow sequence; their throughput distributions must roughly agree. This is
// the Figure 7 experiment; `r2c2 fig fig7` runs it at larger scale.
func TestFig7CrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock emulation")
	}
	cfg := Config{K: 3, Dims: 2, LinkGbps: 0.2, Flows: 24,
		Tau: 5 * simtime.Millisecond, Seed: 7, FlowBytes: 512 << 10}
	res, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EmuThroughput.Len() != cfg.Flows || res.SimThroughput.Len() != cfg.Flows {
		t.Fatalf("flow counts: emu=%d sim=%d", res.EmuThroughput.Len(), res.SimThroughput.Len())
	}
	// Wall-clock noise (scheduler, timer resolution) allows a generous
	// band; the paper reports "high accuracy", we assert same ballpark.
	// Under the race detector the emulator's goroutines run 5-20x slower
	// while the simulator's virtual clock is unaffected, so the accuracy
	// comparison is meaningless there; the structural checks above still ran.
	if raceEnabled {
		t.Skip("wall-clock emulator timing is distorted by the race detector")
	}
	if gap := res.MedianThroughputGap(); gap > 0.5 {
		t.Errorf("median throughput gap emulator vs simulator = %.2f (emu %.3g, sim %.3g)",
			gap, res.EmuThroughput.Median(), res.SimThroughput.Median())
	}
	_ = res.Table().String()
}
