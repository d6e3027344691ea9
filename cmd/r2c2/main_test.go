package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"r2c2/internal/experiments"
)

// runOut runs args and returns what they printed.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%q): %v\noutput:\n%s", args, err, out.String())
	}
	return out.String()
}

func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// argCases is a table of command lines, grouped under the name of the mode
// or former binary whose checks they carry.
type argCases []struct {
	name string
	args [][]string
}

// TestRunBadFlag: every mode rejects a flag it does not take, another
// mode's flags included. The sim, emu, rates, routing and overhead cases
// are the checks of the r2c2-sim, r2c2-emu, r2c2-rates, r2c2-routing and
// r2c2-overhead binaries this command replaced, in its argument syntax.
func TestRunBadFlag(t *testing.T) {
	for _, tc := range (argCases{
		{"fig", [][]string{{"fig", "-no-such-flag"}}},
		{"sim", [][]string{
			{"sim", "-no-such-flag"},
			{"fig", "fig10", "-no-such-flag"},
			{"sim", "-faults", "gen:7", "-demo"},
		}},
		{"emu", [][]string{{"emu", "-no-such-flag"}}},
		{"rates", [][]string{{"fig", "fig15", "-no-such-flag"}}},
		{"routing", [][]string{
			{"fig", "fig2", "-no-such-flag"},
			{"fig", "fig2", "-racks", "3"},
		}},
		{"overhead", [][]string{{"fig", "fig9", "-no-such-flag"}}},
		{"interrack", [][]string{
			{"interrack", "-no-such-flag"},
			{"interrack", "-dims", "3"},
		}},
	}) {
		t.Run(tc.name, func(t *testing.T) {
			for _, args := range tc.args {
				if _, err := parse(args, io.Discard); err == nil {
					t.Errorf("parse(%q) accepted", args)
				}
			}
		})
	}
}

// TestRunRejectsHostileFlags: out-of-range values come back as a one-line
// error from parse, which builds no topology and starts nothing, never as
// a panic or an empty table. The sim, emu, rates and overhead cases carry
// the checks of the binaries of those names; r2c2-sim's -interrack cases
// are under interrack.
func TestRunRejectsHostileFlags(t *testing.T) {
	for _, tc := range (argCases{
		{"command", [][]string{
			{},
			{"bogus"},
			{"fig", "nosuch"},
			{"fig", "fig2", "-scale", "huge"},
			{"sim"},
			{"sim", "extra"},
		}},
		{"sim", [][]string{
			{"fig", "fig10", "-k", "0"},
			{"fig", "fig10", "-k", "1"},
			{"fig", "fig10", "-dims", "0"},
			{"fig", "fig10", "-flows", "0"},
			{"fig", "fig10", "-tau", "0"},
			{"fig", "fig10", "-tau", "-1"},
			{"fig", "fig10", "-tau", "1e300"},
			{"sim", "-faults", "garbage"},
		}},
		{"rates", [][]string{
			{"fig", "fig15", "-k", "0"},
			{"fig", "fig15", "-dims", "0"},
			{"fig", "fig15", "-flows", "0"},
			{"fig", "fig15", "-tau", "0"},
		}},
		{"overhead", [][]string{
			{"fig", "fig8", "-flows", "0"},
			{"fig", "fig8", "-flows", "-5"},
			// The tick budget is registry data now: there is no flag to zero it.
			{"fig", "fig8", "-max-ticks", "0"},
		}},
		{"emu", [][]string{
			{"emu", "-demo", "-flows", "-1"},
			{"emu", "-flows", "0"},
			{"emu", "-tau", "0"},
			{"emu", "-bytes", "0"},
			{"emu", "-mbps", "0"},
			{"emu", "-mbps", "NaN"},
			{"emu", "-mbps", "Inf"},
			{"emu", "-k", "1"},
			{"emu", "-faults", "gen:7", "-flows", "0"},
			{"emu", "-faults", "gen:7", "-tau", "0"},
			{"emu", "-faults", "gen:x"},
		}},
		{"interrack", [][]string{
			{"interrack", "-horizon", "-1ms"},
			{"interrack", "-horizon", "0"},
			{"interrack", "-mixes", "x"},
			{"interrack", "-mixes", "1.5"},
			{"interrack", "-racks", "0"},
			{"interrack", "-racks", "1"},
			{"interrack", "-bridges", "0"},
			{"interrack", "-bridges", "17"},
			{"interrack", "-flows", "0"},
			{"interrack", "-k", "1"},
		}},
	}) {
		t.Run(tc.name, func(t *testing.T) {
			for _, args := range tc.args {
				_, err := parse(args, io.Discard)
				if err == nil || strings.Contains(err.Error(), "\n") {
					t.Errorf("parse(%q) = %v, want a one-line error", args, err)
				}
			}
		})
	}
}

// FuzzArgs parses and validates arbitrary command lines and never runs
// one: whatever -shards, -parallel or -flows says, parse builds nothing and
// starts no goroutine or simulation. An error is one line, and an accepted
// line has something to run.
func FuzzArgs(f *testing.F) {
	for _, seed := range []string{
		"fig fig2 -scale paper",
		"fig fig10 fig12 -k 3 -dims 2 -flows 25 -tau 20 -parallel 64",
		"interrack -shards 1000000 -racks 40 -k 16 -mixes 0,0.5 -horizon 1500us",
		"emu -demo -flows -1",
		"emu -faults gen:7 -flows 20 -bytes 262144 -tau 3ms -csv",
		"sim -faults down@10ms:0-1/2ms;crash@40ms:5/2ms",
		"fig fig18 -seed -9 -reliable",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		inv, err := parse(strings.Fields(line), io.Discard)
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("parse(%q): multi-line error %q", line, err)
			}
			return
		}
		if len(inv.steps) == 0 {
			t.Fatalf("parse(%q) accepted a line with nothing to run", line)
		}
	})
}

// TestRunSmoke drives each kind of figure at a tiny scale through the
// command and checks the report's structure, not its numbers.
func TestRunSmoke(t *testing.T) {
	t.Run("fig2-reduced", func(t *testing.T) {
		// -k and -dims override the registry's geometry.
		mustContain(t, runOut(t, "fig", "fig2", "-k", "3", "-dims", "2"),
			"Figure 2 topology: 3-ary 2-cube (9 nodes)", "worst-case")
	})
	t.Run("fig9-csv", func(t *testing.T) {
		mustContain(t, runOut(t, "fig", "fig9", "-csv"),
			"# Figure 9", "spot checks on the 512-node 3D torus")
	})
	t.Run("fig10-tiny", func(t *testing.T) {
		mustContain(t, runOut(t, "fig", "fig10", "-k", "3", "-dims", "2", "-flows", "25", "-tau", "20"),
			"topology: 3-ary 2-cube (9 nodes)", "R2C2", "TCP", "PFQ")
	})
	t.Run("fig15-csv", func(t *testing.T) {
		mustContain(t, runOut(t, "fig", "fig15", "-k", "3", "-dims", "2", "-flows", "40", "-csv"),
			"topology: 3-ary 2-cube (9 nodes)", "# Figure 15")
	})
	t.Run("fig19-reduced", func(t *testing.T) {
		mustContain(t, runOut(t, "fig", "fig19", "-k", "3", "-dims", "2"), "Figure 19", "centralized")
	})
	t.Run("header-once", func(t *testing.T) {
		// Names and flags interleave, and entries sharing a configuration
		// print its line once.
		out := runOut(t, "fig", "fig15", "-k", "3", "-dims", "2", "fig16", "-flows", "40")
		if n := strings.Count(out, "topology:"); n != 1 {
			t.Fatalf("%d topology lines, want 1:\n%s", n, out)
		}
		mustContain(t, out, "Figure 15", "Figure 16")
	})
	t.Run("list", func(t *testing.T) {
		out := runOut(t, "fig")
		for _, f := range experiments.Figures {
			mustContain(t, out, f.Name+" ")
		}
	})
	t.Run("interrack", func(t *testing.T) {
		mustContain(t, runOut(t, "interrack", "-flows", "20", "-mixes", "0.5", "-shards", "2", "-csv"),
			"# intra- vs inter-rack traffic mix", "# per-shard utilisation")
	})
}

// TestRunFaults replays fault schedules: a fixed one on the simulator,
// which is deterministic, so exact structure is asserted, and a generated
// one on both backends.
func TestRunFaults(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		mustContain(t, runOut(t, "sim", "-faults", "down@10ms:0-1/2ms;crash@40ms:5/2ms", "-csv"),
			"schedule:", "completed,", "reroutes,2", "expected waves,2")
	})
	t.Run("emu", func(t *testing.T) {
		if testing.Short() {
			t.Skip("emulator runs in wall-clock time")
		}
		mustContain(t, runOut(t, "emu", "-faults", "gen:7", "-flows", "12", "-bytes", "131072", "-tau", "3ms"),
			"schedule:", "reroutes", "expected reroute waves")
	})
}

// TestRunFaultsBadSchedule: an endpoint outside the torus passes parse,
// which builds no topology, and fails before anything runs on it.
func TestRunFaultsBadSchedule(t *testing.T) {
	if err := run([]string{"sim", "-faults", "down@10ms:0-99/2ms"}, io.Discard); err == nil {
		t.Fatal("schedule with out-of-range node accepted")
	}
}

// TestRunEmu cross-validates, then runs the live demo on, a handful of
// small flows. The emulator runs in wall-clock time, so the workload is
// kept tiny.
func TestRunEmu(t *testing.T) {
	if testing.Short() {
		t.Skip("emulator runs in wall-clock time")
	}
	mustContain(t, runOut(t, "emu", "-crossvalidate", "-flows", "6", "-mbps", "500", "-bytes", "262144", "-tau", "2ms"),
		"Figure 7", "median throughput gap")
	mustContain(t, runOut(t, "emu", "-demo", "-flows", "3", "-bytes", "65536"), "live rack: 4x4 2D torus", "drops: ")
}
