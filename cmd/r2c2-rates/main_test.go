package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig15", "-k", "3", "-dims", "2", "-flows", "40", "-csv"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "topology: 3-ary 2-cube (9 nodes)") {
		t.Fatalf("output missing topology line:\n%s", out.String())
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
		{"-k", "0"},
		{"-dims", "0"},
		{"-flows", "0"},
		{"-tau", "0"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("run(%v) = %v, want a one-line error", args, err)
		}
	}
}
