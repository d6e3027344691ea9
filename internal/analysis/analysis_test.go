package analysis

import (
	"strings"
	"testing"
)

// checkOne runs a single analyzer over one in-memory file and returns the
// rules of the surviving findings.
func checkOne(t *testing.T, a Analyzer, pkgPath, src string) []Diagnostic {
	t.Helper()
	diags, err := CheckSource(pkgPath, map[string]string{"src.go": src}, []Analyzer{a})
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	return diags
}

// wantFindings asserts the number of findings and that each message
// mentions the wanted substring.
func wantFindings(t *testing.T, diags []Diagnostic, n int, contains string) {
	t.Helper()
	if len(diags) != n {
		t.Fatalf("got %d findings, want %d: %v", len(diags), n, diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, contains) {
			t.Errorf("finding %q does not mention %q", d.Message, contains)
		}
	}
}

// checkModule runs module analyzers over in-memory packages and returns
// the surviving findings.
func checkModule(t *testing.T, pkgs map[string]map[string]string, as ...ModuleAnalyzer) []Diagnostic {
	t.Helper()
	diags, err := CheckSourceModule(pkgs, as)
	if err != nil {
		t.Fatalf("CheckSourceModule: %v", err)
	}
	return diags
}

// onePkg wraps a single file as a one-package module.
func onePkg(path, src string) map[string]map[string]string {
	return map[string]map[string]string{path: {"src.go": src}}
}

func TestNoWallclock(t *testing.T) {
	a := NewNoWallclock("internal/sim")
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"violating-now", `package sim
import "time"
func f() int64 { return time.Now().UnixNano() }`, 1},
		{"violating-sleep-since", `package sim
import "time"
func f() { start := time.Now(); time.Sleep(time.Millisecond); _ = time.Since(start) }`, 3},
		{"violating-aliased-import", `package sim
import wall "time"
func f() { wall.Sleep(wall.Second) }`, 1},
		{"conforming-duration-arithmetic", `package sim
import "time"
func f() time.Duration { return 3 * time.Millisecond }`, 0},
		{"conforming-virtual-clock", `package sim
func f(now int64) int64 { return now + 1 }`, 0},
		{"conforming-other-receiver", `package sim
type ticker struct{}
func (ticker) Now() int { return 0 }
func f() int { var clock ticker; return clock.Now() }`, 0}, // Now() on a non-time receiver is fine
	}
	t.Run("emu-in-default-scope", func(t *testing.T) {
		// Regression: Flow.started once read time.Now() directly in
		// emu.go, leaking absolute host time into FCT results. The default
		// no-wallclock scope now covers internal/emu; only the audited
		// chokepoint in emu/clock.go is allowlisted.
		src := `package emu
import "time"
type Flow struct{ started time.Time }
func start() *Flow { return &Flow{started: time.Now()} }`
		diags, err := CheckSource("r2c2/internal/emu", map[string]string{"emu.go": src}, Default())
		if err != nil {
			t.Fatalf("CheckSource: %v", err)
		}
		wantFindings(t, diags, 1, "wall-clock time.Now")
	})
	t.Run("allowlisted-file", func(t *testing.T) {
		// The same read in the allowlisted rack clock is not a finding.
		src := "package emu\nimport \"time\"\nfunc now() time.Time { return time.Now() }"
		diags, err := CheckSource("r2c2/internal/emu", map[string]string{"clock.go": src}, Default())
		if err != nil {
			t.Fatalf("CheckSource: %v", err)
		}
		wantFindings(t, diags, 0, "")
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := checkOne(t, a, "r2c2/internal/sim", tc.src)
			if len(diags) != tc.want {
				t.Fatalf("got %d findings, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
	// Scoping: the same violating source in an out-of-scope package is clean.
	src := "package emu\nimport \"time\"\nfunc f() { time.Sleep(time.Second) }"
	if diags := checkOne(t, a, "r2c2/internal/emu", src); len(diags) != 0 {
		t.Fatalf("out-of-scope package flagged: %v", diags)
	}
	// Test files are exempt: wall-clock deadlines in harnesses are fine.
	diags, err := CheckSource("r2c2/internal/sim", map[string]string{
		"x_test.go": "package sim\nimport \"time\"\nfunc f() { time.Sleep(time.Second) }",
	}, []Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wantFindings(t, diags, 0, "")
}

func TestUnitSuffix(t *testing.T) {
	a := NewUnitSuffix()
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"violating-field", `package p
type Config struct {
	Rate float64
	Size int64
}`, 2},
		{"conforming-suffixed", `package p
type Config struct {
	RateGbps  float64
	SizeBytes int64
	DemandKbps uint32
	DelayNs   int64
}
func Send(sizeBytes int64, rateMbps float64) {}`, 0},
		{"conforming-named-type", `package p
import "r2c2/internal/simtime"
type Config struct {
	Interval simtime.Time
}`, 0},
		{"conforming-unexported", `package p
type config struct{ rate float64 }
func send(size int64) {}`, 0},
		{"conforming-unit-agnostic", `package waterfill
type Flow struct{ Demand float64 }
type Config struct{ Capacity float64 }`, 0},
		{"conforming-no-quantity", `package p
type Config struct {
	Nodes int
	Headroom float64
	Weight uint8
}`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := checkOne(t, a, "r2c2/internal/p", tc.src)
			if len(diags) != tc.want {
				t.Fatalf("got %d findings, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
}

func TestDefaultRuleSetScoping(t *testing.T) {
	// Every rule in the default sets must have a unique name (ignore
	// directives address rules by name), and the two sets together are
	// exactly the three rules DESIGN.md §6 lists.
	type rule interface {
		Name() string
		Doc() string
	}
	var rules []rule
	for _, a := range Default() {
		rules = append(rules, a)
	}
	for _, a := range DefaultModule() {
		rules = append(rules, a)
	}
	seen := map[string]bool{}
	for _, a := range rules {
		if seen[a.Name()] {
			t.Errorf("duplicate rule name %q", a.Name())
		}
		seen[a.Name()] = true
		if a.Doc() == "" {
			t.Errorf("rule %q has no doc", a.Name())
		}
	}
	want := []string{"no-wallclock", "unit-suffix", "det-map-iter"}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("default rule set is missing %q", name)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("default rule sets hold %d rules, want %d", len(seen), len(want))
	}
}
