package analysis

import (
	"strings"
	"testing"
)

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

// countRule tallies findings for one rule, failing the test on any
// lint-directive findings (a fixture with a bad ignore is a broken test).
func countRule(t *testing.T, diags []Diagnostic, rule string) int {
	t.Helper()
	n := 0
	for _, d := range diags {
		if d.Rule == "lint-directive" {
			t.Fatalf("fixture produced lint-directive finding: %v", d)
		}
		if d.Rule == rule {
			n++
		}
	}
	return n
}

func TestAllocHotpathConstructs(t *testing.T) {
	a := NewAllocHotpath()
	cases := []struct {
		name string
		src  string
		want int
		msg  string
	}{
		{"make", `package p
//r2c2:hotpath
func F() { _ = make([]int, 4) }`, 1, "make allocates"},
		{"new", `package p
//r2c2:hotpath
func F() *int { return new(int) }`, 1, "new allocates"},
		{"slice-literal", `package p
//r2c2:hotpath
func F() { _ = []int{1, 2} }`, 1, "slice literal"},
		{"map-literal", `package p
//r2c2:hotpath
func F() { _ = map[int]int{} }`, 1, "map literal"},
		{"addr-composite", `package p
type T struct{ x int }
//r2c2:hotpath
func F() *T { return &T{x: 1} }`, 1, "&composite literal"},
		{"value-struct-literal-ok", `package p
type T struct{ x int }
//r2c2:hotpath
func F() T { return T{x: 1} }`, 0, ""},
		{"append-fresh", `package p
//r2c2:hotpath
func F(xs []int) []int { ys := append([]int(nil), xs...); return ys }`, 1, "append"},
		{"append-grow-in-place-ok", `package p
type B struct{ buf []int }
//r2c2:hotpath
func (b *B) F(x int) { b.buf = append(b.buf, x) }`, 0, ""},
		{"append-reslice-reuse-ok", `package p
type B struct{ buf []int }
//r2c2:hotpath
func (b *B) F(x int) { b.buf = append(b.buf[:0], x) }`, 0, ""},
		{"append-into-param-ok", `package p
//r2c2:hotpath
func F(buf []int, x int) []int { return append(buf, x) }`, 0, ""},
		{"string-concat", `package p
//r2c2:hotpath
func F(a, b string) string { return a + b }`, 1, "string concatenation"},
		{"const-concat-ok", `package p
//r2c2:hotpath
func F() string { return "a" + "b" }`, 0, ""},
		{"bytes-to-string", `package p
//r2c2:hotpath
func F(b []byte) string { return string(b) }`, 1, "conversion between string"},
		{"string-to-bytes", `package p
//r2c2:hotpath
func F(s string) []byte { return []byte(s) }`, 1, "conversion between string"},
		{"boxing-assign", `package p
//r2c2:hotpath
func F(x int) { var i interface{} = x; _ = i }`, 1, "interface boxing"},
		{"boxing-pointer-ok", `package p
type T struct{ x int }
//r2c2:hotpath
func F(t *T) { var i interface{} = t; _ = i }`, 0, ""},
		{"boxing-nil-ok", `package p
//r2c2:hotpath
func F() { var i interface{} = nil; _ = i }`, 0, ""},
		{"boxing-return", `package p
//r2c2:hotpath
func F(x float64) interface{} { return x }`, 1, "interface boxing"},
		{"boxing-call-arg", `package p
func sink(i interface{}) {}
//r2c2:hotpath
func F(x int) { sink(x) }`, 1, "interface boxing"},
		{"closure-capture", `package p
//r2c2:hotpath
func F(x int) func() int { return func() int { return x } }`, 1, "closure capturing x"},
		{"closure-no-capture-ok", `package p
//r2c2:hotpath
func F() func() int { return func() int { return 7 } }`, 0, ""},
		{"fmt-call", `package p
import "fmt"
//r2c2:hotpath
func F(x int) string { return fmt.Sprintf("%d", x) }`, 1, "fmt.Sprintf allocates"},
		{"errors-new", `package p
import "errors"
//r2c2:hotpath
func F() error { return errors.New("boom") }`, 1, "errors.New allocates"},
		{"time-after", `package p
import "time"
//r2c2:hotpath
func F() { <-time.After(1) }`, 1, "time.After allocates"},
		{"panic-args-exempt", `package p
import "fmt"
//r2c2:hotpath
func F(x int) {
	if x < 0 {
		panic(fmt.Sprintf("bad %d", x))
	}
}`, 0, ""},
		{"unannotated-ok", `package p
func F() { _ = make([]int, 4) }`, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := checkModule(t, onePkg("m/p", tc.src), a)
			if got := countRule(t, diags, "alloc-hotpath"); got != tc.want {
				t.Fatalf("got %d findings, want %d: %v", got, tc.want, diags)
			}
			if tc.want > 0 && !strings.Contains(diags[0].Message, tc.msg) {
				t.Errorf("message %q should contain %q", diags[0].Message, tc.msg)
			}
		})
	}
}

func TestAllocHotpathTransitiveCallee(t *testing.T) {
	a := NewAllocHotpath()
	src := `package p

//r2c2:hotpath
func Run() { helper() }

func helper() { _ = make([]int, 8) }

func cold() { _ = make([]int, 8) }`
	diags := checkModule(t, onePkg("m/p", src), a)
	if got := countRule(t, diags, "alloc-hotpath"); got != 1 {
		t.Fatalf("got %d findings, want 1 (helper flagged, cold not): %v", got, diags)
	}
	msg := diags[0].Message
	if !strings.Contains(msg, "p.helper") || !strings.Contains(msg, "reached from") || !strings.Contains(msg, "p.Run") {
		t.Errorf("message %q should name helper and the hot root Run", msg)
	}
}

func TestAllocHotpathTransitiveCrossPackage(t *testing.T) {
	a := NewAllocHotpath()
	pkgs := map[string]map[string]string{
		"m/leaf": {"leaf.go": `package leaf
func Grow(n int) []int { return make([]int, n) }`},
		"m/top": {"top.go": `package top
import "m/leaf"
//r2c2:hotpath
func Run(n int) []int { return leaf.Grow(n) }`},
	}
	diags := checkModule(t, pkgs, a)
	if got := countRule(t, diags, "alloc-hotpath"); got != 1 {
		t.Fatalf("got %d findings, want 1: %v", got, diags)
	}
	if !strings.Contains(diags[0].Message, "leaf.Grow") {
		t.Errorf("message %q should name the cross-package callee", diags[0].Message)
	}
}

func TestAllocHotpathMethodAndGeneric(t *testing.T) {
	a := NewAllocHotpath()
	src := `package p

type Q struct{ xs []int }

//r2c2:hotpath
func (q *Q) Push(x int) { q.xs = grow(q.xs, x) }

func grow[T any](xs []T, x T) []T {
	ys := append([]T(nil), xs...)
	return append(ys, x)
}`
	diags := checkModule(t, onePkg("m/p", src), a)
	// The copying append inside the generic callee is flagged; the final
	// append returns into ys which is not a parameter, flagged too.
	if got := countRule(t, diags, "alloc-hotpath"); got < 1 {
		t.Fatalf("got %d findings, want >=1 (generic callee reached from hot method): %v", got, diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "p.grow") {
			t.Errorf("message %q should attribute the alloc to the generic callee", d.Message)
		}
	}
}

func TestAllocHotpathIgnorePlacement(t *testing.T) {
	a := NewAllocHotpath()
	src := `package p

//r2c2:hotpath
func F() {
	_ = make([]int, 16)
	//lint:ignore alloc-hotpath one-time warmup, amortised across the run
	_ = make([]int, 4)
	_ = make([]int, 8) //lint:ignore alloc-hotpath cold branch in disguise
}`
	diags := checkModule(t, onePkg("m/p", src), a)
	if got := countRule(t, diags, "alloc-hotpath"); got != 1 {
		t.Fatalf("got %d findings, want 1 (two suppressed, one live): %v", got, diags)
	}
	if diags[0].Pos.Line != 5 {
		t.Errorf("surviving finding at line %d, want 5 (the unsuppressed make)", diags[0].Pos.Line)
	}
}

func TestAllocHotpathUnknownRuleIgnoreErrors(t *testing.T) {
	src := `package p

//r2c2:hotpath
func F() {
	//lint:ignore alloc-hotpth typo in the rule name
	_ = make([]int, 4)
}`
	diags, err := CheckSourceModule(onePkg("m/p", src), []ModuleAnalyzer{NewAllocHotpath()})
	if err != nil {
		t.Fatalf("CheckSourceModule: %v", err)
	}
	var sawDirective bool
	for _, d := range diags {
		if d.Rule == "lint-directive" && strings.Contains(d.Message, "alloc-hotpth") {
			sawDirective = true
		}
	}
	if !sawDirective {
		t.Errorf("typoed rule name should surface as a lint-directive finding: %v", diags)
	}
}
