package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test holds the
// program to.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declJSON `json:"end_to_end"`
	PerLayer   []declJSON `json:"per_layer"`
}

type declJSON struct {
	Name, Unit, Better string
	Bound              float64
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The program's metric and workload tables are the ones BENCHMARK.json
// declares, in the same order, and every name and unit is well formed.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	seen := make(map[string]bool)
	same := func(kind string, got []declJSON, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s[%d]: malformed name %q or unit %q", kind, i, g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			if seen[g.Name] {
				t.Errorf("%s declared twice", g.Name)
			}
			seen[g.Name] = true
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, e := range b.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Bound > b.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Unit != "s" || b.EndToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", b.EndToEnd[0])
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or why over 200 characters", w.Name)
		}
	}
}

// Every workload, at 1/20 scale in this process: one untraced run, then the
// traced pass with its ladder. Each reports exactly the declared metrics,
// passes its output checks, and its result line parses back.
func TestEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	outDir := t.TempDir()
	cfg := measureConfig{seed: 2, seconds: 0, scale: 0.05, outDir: outDir, minReps: 1,
		run: func(w *workload, opt repOptions) (*repOut, error) {
			opt.spawnedAt = time.Now()
			return runRep(w, opt)
		}}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := cfg
				cfg.trace = trace
				m, err := measure(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				decls, sums := endToEnd, m.endToEnd()
				if trace {
					decls, sums = perLayer, m.perLayer()
				}
				for name := range sums {
					if !declared(decls, name) {
						t.Errorf("trace=%v: %s is measured but not declared", trace, name)
					}
				}
				res := m.result(decls, sums)
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var back result
				if err := json.Unmarshal(line, &back); err != nil {
					t.Fatalf("result line does not parse: %v", err)
				}
				if !back.Correct || back.Failed != 0 || back.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v", trace, back.Correct, back.Attempted, back.Failed, m.failures)
				}
				if len(back.Metrics) != len(decls) {
					t.Errorf("trace=%v: %d metrics in the result, %d declared", trace, len(back.Metrics), len(decls))
				}
				for _, d := range decls {
					v, ok := back.Metrics[d.name]
					if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("trace=%v: %s = %+v (present %v)", trace, d.name, v, ok)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, v.Value)
					}
				}
				if trace {
					if _, err := os.Stat(outDir + "/trace-" + w.name + ".json"); err != nil {
						t.Errorf("traced pass left no trace file: %v", err)
					}
				}
			}
		})
	}
}

func declared(decls []metricDecl, name string) bool {
	for _, d := range decls {
		if d.name == name {
			return true
		}
	}
	return false
}

func TestPercentileMedianSummary(t *testing.T) {
	vs := []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5}, {100, 9}, {25, 3}, {90, 8.2}} {
		if got := percentile(vs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vs[0] != 9 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if s := summarize(vs); s != (summary{Value: 5, Min: 1, Max: 9, N: 5}) {
		t.Errorf("summarize = %+v", s)
	}
}

// A span's self time is its duration minus the union of its children's
// intervals, clipped to the span: overlapping children count once.
func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps span 2 by 10
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // runs past its parent
		{ID: 5, Parent: 2, StartNs: 10, EndNs: 40},
	}
	selfTimes(spans)
	for id, want := range map[spanID]int64{1: 100 - 50 - 10, 2: 0, 3: 30, 4: 30, 5: 30} {
		if got := spans[id-1].SelfNs; got != want {
			t.Errorf("span %d: self %d ns, want %d", id, got, want)
		}
	}
}

// The tracer records nothing when off and nests by the parent it is given.
func TestTracer(t *testing.T) {
	off := newTracer(false)
	off.end(off.start(0, "x"), 1)
	if len(off.spans) != 0 {
		t.Error("a tracer that is off recorded a span")
	}
	on := newTracer(true)
	root := on.start(0, "run")
	kid := on.startFlow(root, "emu.StartFlow", 7)
	on.end(kid, 1)
	on.end(root, 3)
	if len(on.spans) != 2 || on.spans[1].Parent != root || on.spans[1].Flow != 7 || on.spans[0].Calls != 3 {
		t.Errorf("spans = %+v", on.spans)
	}
	if on.spans[1].StartNs < on.spans[0].StartNs || on.spans[1].EndNs > on.spans[0].EndNs {
		t.Errorf("child not inside its parent: %+v", on.spans)
	}
}
