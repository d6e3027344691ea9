package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke drives the full Figure 10/11 pipeline at a tiny scale and
// checks the report structure, not the numbers.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig10", "-k", "3", "-dims", "2", "-flows", "25", "-tau", "20"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"topology: 3-ary 2-cube (9 nodes)", "R2C2", "TCP", "PFQ"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunFaults replays a tiny explicit schedule through the fault sweep;
// deterministic, so exact structure is asserted.
func TestRunFaults(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-faults", "down@10ms:0-1/2ms;crash@40ms:5/2ms", "-csv"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"completed,", "reroutes,2", "expected waves,2"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFaultsBadSchedule(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-faults", "down@10ms:0-99/2ms"}, &out); err == nil {
		t.Fatal("schedule with out-of-range node accepted")
	}
}

// TestRunRejectsHostileFlags: out-of-range sizes come back as a one-line
// error before any topology or workload is built, never as a panic.
func TestRunRejectsHostileFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-interrack", "-racks", "0"},
		{"-interrack", "-racks", "1"},
		{"-interrack", "-bridges", "0"},
		{"-interrack", "-bridges", "17"},
		{"-interrack", "-flows", "0"},
		{"-k", "0"},
		{"-k", "1"},
		{"-dims", "0"},
		{"-flows", "0"},
		{"-tau", "0"},
		{"-tau", "-1"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("run(%v) = %v, want a one-line error", args, err)
		}
	}
}
