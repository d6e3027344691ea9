package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRegistrySmall checks every entry's two configurations and runs each
// entry at small scale, as `r2c2 fig <name>` does by default.
func TestRegistrySmall(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Figures {
		if seen[f.Name] || f.Section == "" || f.Claim == "" || f.Run == nil {
			t.Fatalf("entry %q is a duplicate or incomplete", f.Name)
		}
		seen[f.Name] = true
		for _, c := range []Config{f.Small, f.Paper} {
			if err := f.Validate(c); err != nil {
				t.Errorf("%s: %v", f.Name, err)
			}
		}
	}
	if testing.Short() {
		t.Skip("runs every figure")
	}
	start := time.Now()
	for _, f := range Figures {
		var out bytes.Buffer
		began := time.Now()
		if err := f.Run(f.Small, &Writer{W: &out}); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s printed nothing", f.Name)
		}
		t.Logf("%-12s %v", f.Name, time.Since(began).Round(time.Millisecond))
	}
	t.Logf("all entries: %v", time.Since(start).Round(time.Millisecond))
}

// TestRegistryPaperGolden runs the entries whose paper-scale run takes
// well under a second and compares their output with results/ byte for
// byte, as `r2c2 fig <names> -scale paper` prints it.
func TestRegistryPaperGolden(t *testing.T) {
	for file, names := range map[string][]string{
		"fig2.txt":    {"fig2"},
		"fig9-19.txt": {"fig9", "fig19"},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", file))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		w := &Writer{W: &out}
		for _, name := range names {
			f, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Run(f.Paper, w); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if got := out.String(); got != string(want) {
			t.Errorf("%v at paper scale differs from results/%s\n--- got ---\n%s--- want ---\n%s", names, file, got, want)
		}
	}
}

// TestCheckRejects: each entry kind's check rejects the values its run
// cannot use.
func TestCheckRejects(t *testing.T) {
	ring, err := Lookup("interrack")
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := Lookup("fig7")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]Config{
		"horizon": func(c Config) Config { c.Horizon = -1; return c }(ring.Small),
		"mix":     func(c Config) Config { c.Mixes = []float64{0, 2}; return c }(ring.Small),
		"racks":   func(c Config) Config { c.Racks = 1; return c }(ring.Small),
		"bridges": func(c Config) Config { c.Bridges = c.K*c.K + 1; return c }(ring.Small),
	} {
		if ring.Validate(c) == nil {
			t.Errorf("interrack check accepted a bad %s", name)
		}
	}
	for name, c := range map[string]Config{
		"bytes": func(c Config) Config { c.FlowBytes = 0; return c }(fig7.Small),
		"flows": func(c Config) Config { c.Flows = -1; return c }(fig7.Small),
		"link":  func(c Config) Config { c.LinkGbps = 0; return c }(fig7.Small),
	} {
		if fig7.Validate(c) == nil {
			t.Errorf("fig7 check accepted a bad %s", name)
		}
	}
}
