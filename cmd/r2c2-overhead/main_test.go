package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig9", "-csv"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "spot checks on the 512-node 3D torus") {
		t.Fatalf("output missing spot checks:\n%s", out.String())
	}
}

func TestRunSmokeFig19(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig19", "-k", "3", "-dims", "2"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if out.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunRejectsHostileFlags: out-of-range sizes come back as a one-line
// error before any topology or workload is built, never as a panic.
func TestRunRejectsHostileFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fig8", "-flows", "0"},
		{"-fig8", "-flows", "-5"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("run(%v) = %v, want a one-line error", args, err)
		}
	}
}
