package faults

import (
	"math"
	"reflect"
	"testing"
	"time"

	"r2c2/internal/topology"
)

func torus(t *testing.T, k, dims int) *topology.Graph {
	t.Helper()
	g, err := topology.NewTorus(k, dims)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParseDSL(t *testing.T) {
	sched, err := Parse("down@10ms:0-1/2ms; up@30ms:0-1/2ms;crash@20ms:5/2ms;drop@0s:2-3/0.01")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: 10 * time.Millisecond, Kind: LinkDown, A: 0, B: 1, Detect: 2 * time.Millisecond},
		{At: 30 * time.Millisecond, Kind: LinkRepair, A: 0, B: 1, Detect: 2 * time.Millisecond},
		{At: 20 * time.Millisecond, Kind: NodeDown, Node: 5, Detect: 2 * time.Millisecond},
		{At: 0, Kind: LinkDrop, A: 2, B: 3, DropProb: 0.01},
	}
	if !reflect.DeepEqual(sched.Events, want) {
		t.Fatalf("parsed %+v\nwant %+v", sched.Events, want)
	}
	// The DSL round-trips through String.
	again, err := Parse(sched.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Events, sched.Events) {
		t.Fatalf("round trip changed the schedule: %v vs %v", again, sched)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "nonsense", "down@10ms", "down@10ms:0-1", "flip@1ms:0-1/1ms",
		"down@xms:0-1/1ms", "down@1ms:0/1ms", "crash@1ms:a/1ms",
		"drop@1ms:0-1/often", "drop@1ms:0-1/1.5", "drop@1ms:0-1/-0.5", "drop@1ms:0-1/NaN",
		"drop@1ms:0-1/Inf", "drop@1ms:0-1/-Inf", `{"events":[{"kind":"down","at":"1ms"}]}`,
		`{"events":[]}`, `[{"kind":"drop","at":"0s","a":0,"b":1,"prob":1.5}]`,
		"down@1ms:3000000000-1/1ms", "crash@1ms:-5/1ms", "crash@1ms:4294967295/1ms",
		`[{"kind":"down","at":"1ms","a":-1,"b":2}]`, `[{"kind":"crash","at":"1ms","node":2147483648}]`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	g := torus(t, 4, 2)
	ok, err := Parse("down@1ms:0-1/1ms;up@5ms:0-1/1ms;crash@2ms:5/1ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Validate(g); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"no cable":        "down@1ms:0-5/1ms", // 0 and 5 are not torus neighbours
		"out of range":    "down@1ms:0-99/1ms",
		"double down":     "down@1ms:0-1/1ms;down@2ms:0-1/1ms",
		"repair not down": "up@1ms:0-1/1ms",
		"double crash":    "crash@1ms:5/1ms;crash@2ms:5/1ms",
		"dead node cable": "crash@1ms:5/1ms;down@2ms:5-6/1ms",
		"dead node up":    "crash@1ms:5/1ms;up@2ms:5-6/1ms",
		"dead node drop":  "crash@1ms:5/1ms;drop@2ms:5-6/0.5",
	} {
		sched, err := Parse(bad)
		if err != nil {
			t.Fatalf("%s: parse failed: %v", name, err)
		}
		if err := sched.Validate(g); err == nil {
			t.Errorf("%s: Validate accepted %q", name, bad)
		}
	}
	// Parse refuses these probabilities; a schedule built in code meets
	// Validate's check.
	for _, p := range []float64{-0.5, 1.5, math.NaN(), math.Inf(1)} {
		sched := Schedule{Events: []Event{{Kind: LinkDrop, A: 0, B: 1, DropProb: p}}}
		if err := sched.Validate(g); err == nil {
			t.Errorf("Validate accepted drop probability %v", p)
		}
	}
	// Union partition: a 1D ring of 4 loses both cables of node 1.
	ring := torus(t, 4, 1)
	part, err := Parse("down@1ms:0-1/1ms;down@2ms:1-2/1ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(ring); err == nil {
		t.Error("partitioning union accepted")
	}
	// Even if the downs never overlap in time: the union rule is
	// deliberately conservative so every detection interleaving is safe.
	serial, err := Parse("down@1ms:0-1/1ms;up@2ms:0-1/1ms;down@3ms:1-2/1ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Validate(ring); err == nil {
		t.Error("union rule should reject serial flaps whose union partitions")
	}
}

func TestWaves(t *testing.T) {
	// Interleaved detections: A fails at 0 with detection 100, B fails at
	// 10 with detection 20. B's fire at t=30 covers both injections, so
	// A's fire at t=100 is a no-op: one wave.
	s, err := Parse("down@0ms:0-1/100ms;down@10ms:1-2/20ms")
	if err != nil {
		t.Fatal(err)
	}
	if w := s.Waves(); w != 1 {
		t.Fatalf("overlapping failures: waves = %d, want 1", w)
	}
	// Disjoint detection windows: two waves.
	s2, err := Parse("down@0ms:0-1/1ms;down@10ms:1-2/1ms")
	if err != nil {
		t.Fatal(err)
	}
	if w := s2.Waves(); w != 2 {
		t.Fatalf("disjoint failures: waves = %d, want 2", w)
	}
	// Repairs fire reroutes too; drop events never do.
	s3, err := Parse("down@0ms:0-1/1ms;up@10ms:0-1/1ms;drop@20ms:2-3/0.5")
	if err != nil {
		t.Fatal(err)
	}
	if w := s3.Waves(); w != 2 {
		t.Fatalf("down+up+drop: waves = %d, want 2", w)
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	g := torus(t, 4, 2)
	cfg := GenConfig{Seed: 7, Horizon: 50 * time.Millisecond, Flaps: 3, Crash: true, DropLinks: 1, DropProb: 0.02}
	s1, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed produced different schedules")
	}
	if err := s1.Validate(g); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	downs, ups, crashes, drops := 0, 0, 0, 0
	for _, e := range s1.Events {
		switch e.Kind {
		case LinkDown:
			downs++
		case LinkRepair:
			ups++
		case NodeDown:
			crashes++
		case LinkDrop:
			drops++
		}
	}
	if downs != 3 || ups != 3 || crashes != 1 || drops != 1 {
		t.Fatalf("schedule shape: %d downs, %d ups, %d crashes, %d drops", downs, ups, crashes, drops)
	}
	if s3, _ := Generate(g, GenConfig{Seed: 8, Horizon: 50 * time.Millisecond, Flaps: 3, Crash: true}); reflect.DeepEqual(s1.Events, s3.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Horizon covers the last detection.
	if h := s1.Horizon(); h < s1.Sorted()[len(s1.Events)-1].At {
		t.Fatalf("horizon %v before last event", h)
	}
}

func TestGenerateRefusesPartition(t *testing.T) {
	// A 3-ring has 3 cables; any 2 of them partition it, so 2 flaps must
	// be refused.
	ring := torus(t, 3, 1)
	if _, err := Generate(ring, GenConfig{Seed: 1, Horizon: time.Millisecond, Flaps: 2}); err == nil {
		t.Fatal("generator produced a partitioning schedule")
	}
	if s, err := Generate(ring, GenConfig{Seed: 1, Horizon: time.Millisecond, Flaps: 1}); err != nil || len(s.Events) != 2 {
		t.Fatalf("single flap on a 3-ring should fit: %v %v", s, err)
	}
}

// FuzzFaultsParse feeds arbitrary text to Parse. It must return an error or
// a non-empty schedule; every schedule it accepts must come back unchanged
// from Parse(sched.String()), and Validate on a 4x4 torus, Waves and
// Horizon must not panic on it.
func FuzzFaultsParse(f *testing.F) {
	for _, seed := range []string{
		// Parse's DSL examples, one at a time and together.
		"down@10ms:0-1/2ms",
		"up@30ms:0-1/2ms",
		"crash@20ms:5/2ms",
		"drop@0s:2-3/0.01",
		"down@10ms:0-1/2ms; up@30ms:0-1/2ms;crash@20ms:5/2ms;drop@0s:2-3/0.01",
		// Schedules Validate refuses on the 4x4 torus: a drop on a crashed
		// node's cable, and flaps of node 0's cables that never cut it off
		// at once but whose union does.
		"crash@1ms:5/1ms;drop@2ms:5-6/0.5",
		"down@1ms:0-1/1ms;up@2ms:0-1/1ms;down@3ms:0-3/1ms;down@3ms:0-4/1ms;down@3ms:0-12/1ms",
	} {
		f.Add(seed)
	}
	g, err := topology.NewTorus(4, 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sched, err := Parse(s)
		if err != nil {
			return
		}
		if sched.Len() == 0 {
			t.Fatalf("Parse(%q) accepted an empty schedule", s)
		}
		again, err := Parse(sched.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %v, but its rendering %q does not parse: %v", s, sched.Events, sched.String(), err)
		}
		if !reflect.DeepEqual(again, sched) {
			t.Fatalf("Parse(%q) = %+v, but its rendering %q parses to %+v", s, sched.Events, sched.String(), again.Events)
		}
		_ = sched.Validate(g)
		_ = sched.Waves()
		_ = sched.Horizon()
	})
}
