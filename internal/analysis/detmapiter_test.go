package analysis

import (
	"strings"
	"testing"
)

func TestDetMapIterLocalSinks(t *testing.T) {
	a := NewDetMapIter()
	cases := []struct {
		name string
		src  string
		want int
		msg  string
	}{
		{"append-unsorted", `package p
func f(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	return out
}`, 1, "emitted without sort"},
		{"collect-then-sort", `package p
import "sort"
func f(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}`, 0, ""},
		{"collect-then-slices-sort", `package p
import "slices"
func f(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}`, 0, ""},
		{"int-sum", `package p
func f(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}`, 0, ""},
		{"float-accumulate", `package p
func f(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}`, 1, "FP addition is not associative"},
		{"string-concat", `package p
func f(m map[int]string) string {
	s := ""
	for _, v := range m {
		s += v
	}
	return s
}`, 1, "string concatenation"},
		{"min-builtin", `package p
func f(m map[int]int) int {
	best := 1 << 30
	for _, v := range m {
		best = min(best, v)
	}
	return best
}`, 1, "ties resolve in iteration order"},
		{"argmin-if", `package p
func f(m map[int]int) int {
	best, bestK := 1<<30, -1
	for k, v := range m {
		if v < best {
			best = v
			bestK = k
		}
	}
	return bestK
}`, 1, "last write in map order wins"},
		{"chan-send", `package p
func f(m map[int]int, ch chan int) {
	for _, v := range m {
		ch <- v
	}
}`, 1, "channel send"},
		{"chan-send-constant-ok", `package p
func f(m map[int]int, ch chan int) {
	for range m {
		ch <- 1
	}
}`, 0, ""},
		{"delete-ok", `package p
func f(m map[int]int) {
	for k := range m {
		delete(m, k)
	}
}`, 0, ""},
		{"map-write-by-key-ok", `package p
func f(m map[int]int) map[int]int {
	out := map[int]int{}
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}`, 0, ""},
		{"slice-write-by-key-ok", `package p
func f(m map[int]float64, n int) []float64 {
	vec := make([]float64, n)
	for k, v := range m {
		vec[k] = v
	}
	return vec
}`, 0, ""},
		{"fixed-index-last-write-wins", `package p
func f(m map[int]int) int {
	vec := make([]int, 1)
	for _, v := range m {
		vec[0] = v
	}
	return vec[0]
}`, 1, "last write in map order wins"},
		{"loop-local-ok", `package p
func f(m map[int]int) int {
	n := 0
	for _, v := range m {
		d := v * 2
		if d > 0 {
			n++
		}
	}
	return n
}`, 0, ""},
		{"derived-dependence", `package p
func f(m map[int]int) []int {
	var out []int
	for _, v := range m {
		d := v * 2
		out = append(out, d)
	}
	return out
}`, 1, "emitted without sort"},
		{"fmt-output", `package p
import "fmt"
func f(m map[int]int) {
	for k := range m {
		fmt.Println(k)
	}
}`, 1, "formatted output"},
		{"atomic-store", `package p
import "sync/atomic"
type flow struct{ rate atomic.Uint64 }
func f(m map[int]*flow) {
	for _, fl := range m {
		fl.rate.Store(1)
	}
}`, 1, "atomic write"},
		{"goroutine-launch", `package p
func f(m map[int]int) {
	for _, v := range m {
		go func() { _ = v }()
	}
}`, 1, "goroutine launched"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := checkModule(t, onePkg("m/p", tc.src), a)
			if len(diags) != tc.want {
				t.Fatalf("got %d findings, want %d: %v", len(diags), tc.want, diags)
			}
			if tc.want > 0 && !strings.Contains(diags[0].Message, tc.msg) {
				t.Errorf("message %q does not mention %q", diags[0].Message, tc.msg)
			}
		})
	}
}

// TestDetMapIterTransitiveScheduler exercises the two-phase resolution: the
// loop body calls a helper in another package, and only the module-wide
// call graph shows the helper reaching a scheduling primitive.
func TestDetMapIterTransitiveScheduler(t *testing.T) {
	a := NewDetMapIter()
	pkgs := map[string]map[string]string{
		"m/internal/core": {"eng.go": `package core
type Engine struct{ n int }
func (e *Engine) After(d int64, fn func()) { e.n++ }
func Arm(e *Engine, rate float64) {
	e.After(1, func() { _ = rate })
}`},
		"m/internal/sim": {"tick.go": `package sim
import "m/internal/core"
type flow struct{ rate float64 }
func tick(e *core.Engine, flows map[uint32]*flow) {
	for _, f := range flows {
		core.Arm(e, f.rate)
	}
}`},
	}
	diags := checkModule(t, pkgs, a)
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "schedules events") ||
		!strings.Contains(diags[0].Message, "core.Arm") {
		t.Errorf("message %q should name core.Arm as the transitive scheduler", diags[0].Message)
	}
}

// TestDetMapIterTransitivePublish: a helper that closes a per-flow channel
// counts as cross-goroutine publication.
func TestDetMapIterTransitivePublish(t *testing.T) {
	a := NewDetMapIter()
	src := `package p
type flow struct{ done chan struct{} }
func (f *flow) abort() { close(f.done) }
func purge(flows map[uint32]*flow) {
	for _, f := range flows {
		f.abort()
	}
}`
	diags := checkModule(t, onePkg("m/p", src), a)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "publishes across goroutines") {
		t.Fatalf("want one transitive-publish finding, got %v", diags)
	}
}

// TestDetMapIterNoLoopData: calling a scheduler with loop-invariant
// arguments is order-free (n identical events), so it must not flag.
func TestDetMapIterNoLoopData(t *testing.T) {
	a := NewDetMapIter()
	src := `package p
type Engine struct{ n int }
func (e *Engine) Schedule(at int64) { e.n++ }
func f(e *Engine, m map[int]int) {
	for range m {
		e.Schedule(5)
	}
}`
	diags := checkModule(t, onePkg("m/p", src), a)
	if len(diags) != 0 {
		t.Fatalf("loop-invariant scheduling should be order-free, got %v", diags)
	}
}

// TestDetMapIterScope: the rule only runs on its configured packages.
func TestDetMapIterScope(t *testing.T) {
	a := NewDetMapIter("internal/sim")
	src := `package cmdx
func f(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	return out
}`
	diags := checkModule(t, onePkg("m/cmd/cmdx", src), a)
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package should not be checked, got %v", diags)
	}
}
