package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunOnDisk exercises the directory walker end-to-end: module path
// resolution, package scoping, the wall-clock file allowlist, and skipping
// of testdata.
func TestRunOnDisk(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/fake\n\ngo 1.22\n")
	// One violation in scope…
	write("internal/sim/clock.go", `package sim
import "time"
func now() int64 { return time.Now().UnixNano() }
`)
	// …one violation in an allowlisted file…
	write("internal/sim/shard.go", `package sim
import "time"
func pace() { time.Sleep(time.Millisecond) }
`)
	// …the same pattern out of scope…
	write("internal/emu/clock.go", `package emu
import "time"
func now() int64 { return time.Now().UnixNano() }
`)
	// …and a testdata directory that must be skipped entirely.
	write("internal/sim/testdata/bad.go", "this is not Go\n")

	diags, err := Run(root, []Analyzer{NewNoWallclock("internal/sim")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(diags), diags)
	}
	if got := filepath.Base(diags[0].Pos.Filename); got != "clock.go" {
		t.Errorf("finding in %s, want clock.go", got)
	}
	if diags[0].Rule != "no-wallclock" {
		t.Errorf("rule = %q, want no-wallclock", diags[0].Rule)
	}
}

func TestRunMissingModule(t *testing.T) {
	if _, err := Run(t.TempDir(), Default()); err == nil {
		t.Fatal("Run on a module-less directory should fail")
	}
}
