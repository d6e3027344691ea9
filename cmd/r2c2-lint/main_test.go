package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, rule := range []string{"no-wallclock", "unit-suffix", "det-map-iter"} {
		if !strings.Contains(out.String(), rule) {
			t.Fatalf("rule listing missing %q:\n%s", rule, out.String())
		}
	}
	if n := strings.Count(out.String(), "\n"); n != 3 {
		t.Fatalf("rule listing has %d lines, want the 3 rules:\n%s", n, out.String())
	}
}

// writeTree materialises a module fixture: path -> content, rooted at a
// temp dir with a go.mod.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.com/fake\n\ngo 1.22\n"
	for path, content := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// multiPkgFixture trips every rule across two packages: a wall-clock read
// and an order-sensitive map iteration in internal/sim, and unit-less
// exported quantities in internal/routing. The
// ignore directive names a rule outside any -rules filter, exercising
// full-set directive validation.
func multiPkgFixture(t *testing.T) string {
	return writeTree(t, map[string]string{
		"internal/sim/clock.go": `package sim

import "time"

func now() int64 { return time.Now().UnixNano() }
`,
		"internal/sim/flows.go": `package sim

type flow struct{ rate float64 }

func emit(flows map[uint32]*flow, ch chan float64) {
	for _, f := range flows {
		ch <- f.rate
	}
}
`,
		"internal/routing/rate.go": `package routing

//lint:ignore unit-suffix fixture exercises directive validation
func Pick(rate float64) {}

func Pick2(rate float64) {}
`,
	})
}

func TestRunDeterministicOutput(t *testing.T) {
	root := multiPkgFixture(t)
	for _, mode := range [][]string{{"-json"}, {}} {
		args := append(append([]string(nil), mode...), root+"/...")
		var a, b bytes.Buffer
		errA := run(args, &a)
		errB := run(args, &b)
		if errA == nil || errB == nil {
			t.Fatalf("fixture should produce findings (args %v)", args)
		}
		if errA.Error() != errB.Error() {
			t.Fatalf("finding counts differ between runs: %v vs %v", errA, errB)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("output not byte-identical across runs (args %v):\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
				args, a.String(), b.String())
		}
	}
}

func TestRunRuleFilter(t *testing.T) {
	root := multiPkgFixture(t)
	var out bytes.Buffer
	err := run([]string{"-rules", "no-wallclock", root + "/..."}, &out)
	if err == nil {
		t.Fatal("the wall-clock read should survive the filter and exit non-zero")
	}
	if _, ok := err.(errFindings); !ok {
		t.Fatalf("want errFindings, got %T: %v", err, err)
	}
	got := out.String()
	if !strings.Contains(got, "no-wallclock") || !strings.Contains(got, "wall-clock time.Now") {
		t.Errorf("filtered run missing the no-wallclock finding:\n%s", got)
	}
	for _, absent := range []string{"det-map-iter", "unit-suffix", "unknown rule"} {
		if strings.Contains(got, absent) {
			t.Errorf("filtered run should not mention %q:\n%s", absent, got)
		}
	}

	if err := run([]string{"-rules", "no-such-rule", root + "/..."}, &out); err == nil ||
		!strings.Contains(err.Error(), "unknown rule") {
		t.Errorf("bogus -rules name should error, got %v", err)
	}
}

// TestRunNewRules: the type-aware det-map-iter rule runs alone under
// -rules and finds its fixture violation.
func TestRunNewRules(t *testing.T) {
	root := multiPkgFixture(t)
	var out bytes.Buffer
	err := run([]string{"-rules", "det-map-iter", root + "/..."}, &out)
	if _, ok := err.(errFindings); !ok {
		t.Fatalf("want errFindings, got %T: %v", err, err)
	}
	got := out.String()
	for _, want := range []string{"det-map-iter", "channel send"} {
		if !strings.Contains(got, want) {
			t.Errorf("filtered run missing %q:\n%s", want, got)
		}
	}
}

// TestRunJSONSchema: -json emits {analyzer_version, rules, findings} and
// the rules field records exactly what ran, so a clean report is
// attributable to a specific rule set and analyzer generation.
func TestRunJSONSchema(t *testing.T) {
	root := multiPkgFixture(t)
	var out bytes.Buffer
	err := run([]string{"-json", "-rules", "det-map-iter", root + "/..."}, &out)
	if _, ok := err.(errFindings); !ok {
		t.Fatalf("want errFindings, got %T: %v", err, err)
	}
	var rep struct {
		AnalyzerVersion int `json:"analyzer_version"`
		Rules           []string
		Findings        []struct{ Rule string }
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("decode report: %v\n%s", err, out.String())
	}
	if rep.AnalyzerVersion < 4 {
		t.Errorf("analyzer_version = %d, want >= 4", rep.AnalyzerVersion)
	}
	if len(rep.Rules) != 1 || rep.Rules[0] != "det-map-iter" {
		t.Errorf("rules = %v, want [det-map-iter]", rep.Rules)
	}
	if len(rep.Findings) == 0 {
		t.Error("findings should be non-empty for the fixture")
	}
	for _, f := range rep.Findings {
		if f.Rule != "det-map-iter" && f.Rule != "lint-directive" {
			t.Errorf("unexpected rule %q under filter", f.Rule)
		}
	}
}

func TestRunFindsViolations(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module example.com/fake\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "sim")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package sim\nimport \"time\"\nfunc now() int64 { return time.Now().UnixNano() }\n"
	if err := os.WriteFile(filepath.Join(dir, "clock.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err := run([]string{"-json", root + "/..."}, &out)
	if err == nil {
		t.Fatal("lint of a violating tree should exit non-zero")
	}
	if _, ok := err.(errFindings); !ok {
		t.Fatalf("want errFindings, got %T: %v", err, err)
	}
	if !strings.Contains(out.String(), "no-wallclock") {
		t.Fatalf("JSON output missing the finding:\n%s", out.String())
	}
}
