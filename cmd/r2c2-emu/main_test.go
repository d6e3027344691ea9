package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke cross-validates a handful of small flows. The emulator runs
// in (scaled) wall-clock time, so the workload is kept tiny.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("emulator runs in wall-clock time")
	}
	var out bytes.Buffer
	args := []string{"-crossvalidate", "-flows", "6", "-mbps", "500", "-bytes", "262144", "-interval", "2ms"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "median throughput gap") {
		t.Fatalf("output missing gap summary:\n%s", out.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunFaults cross-validates a tiny fault schedule on both backends.
func TestRunFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("emulator runs in wall-clock time")
	}
	var out bytes.Buffer
	args := []string{"-faults", "gen:7", "-flows", "12", "-bytes", "131072", "-interval", "3ms"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"schedule:", "reroutes", "expected reroute waves"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsHostileFlags: out-of-range sizes come back as a one-line
// error before any topology or workload is built, never as a panic.
func TestRunRejectsHostileFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-flows", "0"},
		{"-interval", "0"},
		{"-bytes", "0"},
		{"-mbps", "0"},
		{"-k", "1"},
		{"-faults", "gen:7", "-flows", "0"},
		{"-faults", "gen:7", "-interval", "0"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("run(%v) = %v, want a one-line error", args, err)
		}
	}
}
