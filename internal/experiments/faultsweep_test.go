package experiments

import (
	"strings"
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
)

func faultSweepTestConfig(t *testing.T) (Config, faults.Schedule) {
	t.Helper()
	cfg := Config{K: 4, Dims: 2, LinkGbps: 0.2, Flows: 40,
		Tau: 4 * simtime.Millisecond, Seed: 7, FlowBytes: 256 << 10}
	g, err := topology.NewTorus(cfg.K, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Generate(g, faults.GenConfig{
		Seed:    9,
		Horizon: 4 * time.Millisecond * time.Duration(cfg.Flows),
		Detect:  8 * time.Millisecond, // wall-clock safe (see ScheduleArg)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, sched
}

// The simulator half of the sweep is deterministic: the same config must
// produce byte-identical output (the CI artifact depends on this).
func TestFaultSweepSimDeterministic(t *testing.T) {
	cfg, sched := faultSweepTestConfig(t)
	first, err := FaultSweepSim(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	second, err := FaultSweepSim(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.SimTable(sched).CSV(), second.SimTable(sched).CSV()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%s\nvs\n%s", a, b)
	}
	if first.Completed == 0 {
		t.Fatal("no flow survived the schedule")
	}
	if first.Abandoned == 0 {
		t.Fatal("schedule crashed a node but no flow touched it — workload too sparse")
	}
	if want := uint64(sched.Waves()); first.Reroutes != want {
		t.Fatalf("reroutes = %d, want %d", first.Reroutes, want)
	}
}

// Full cross-validation at reduced scale: both backends replay the same
// schedule; completed-flow counts must agree within the documented
// tolerance and both must rebuild the fabric exactly Waves() times.
func TestFaultSweepCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock emulation")
	}
	cfg, sched := faultSweepTestConfig(t)
	res, err := FaultSweep(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sim.Completed + res.Sim.Abandoned + res.Sim.Incomplete; got != cfg.Flows {
		t.Fatalf("sim classified %d of %d flows", got, cfg.Flows)
	}
	if got := res.Emu.Completed + res.Emu.Abandoned + res.Emu.Incomplete; got != cfg.Flows {
		t.Fatalf("emu classified %d of %d flows", got, cfg.Flows)
	}
	if dw := int64(res.Emu.Reroutes) - int64(res.Waves); dw < -1 || dw > 1 {
		t.Fatalf("emu reroutes = %d, want %d +-1", res.Emu.Reroutes, res.Waves)
	}
	if raceEnabled {
		t.Skip("wall-clock emulator timing is distorted by the race detector")
	}
	if !res.Agree(0.2, 2) {
		t.Errorf("backends disagree beyond tolerance:\n%s", res.Table())
	}
}

func TestScheduleArg(t *testing.T) {
	g, err := topology.NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := ScheduleArg(g, "gen:3", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Len() == 0 {
		t.Fatal("gen: produced an empty schedule")
	}
	gen2, err := ScheduleArg(g, "gen:3", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if gen.String() != gen2.String() {
		t.Fatal("gen: same seed produced different schedules")
	}
	dsl, err := ScheduleArg(g, "down@10ms:0-1/2ms", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dsl.Len() != 1 || dsl.Events[0].Kind != faults.LinkDown {
		t.Fatalf("DSL parse: %v", dsl)
	}
	for _, bad := range []string{"gen:x", "down@10ms:0-99/2ms", "nonsense"} {
		if _, err := ScheduleArg(g, bad, time.Second); err == nil {
			t.Errorf("ScheduleArg(%q) accepted", bad)
		}
	}
	if !strings.Contains(dsl.String(), "down@10ms:0-1/2ms") {
		t.Fatalf("round-trip lost the event: %q", dsl.String())
	}
}
