package r2c2

// Source checks over the module's own files: two naming and clock rules
// and the two checks that production code carries no function or field
// only tests use, read off the syntax tree (go/parser only), and the arm64
// assembly scan that keeps floating-point results identical across
// machines. Map iteration order is not checked statically:
// TestRunTwiceByteIdentical (internal/sim) catches an order-sensitive map
// range at runtime, and CI repeats it. There is no suppression comment; a
// rule's exceptions are the allowlists below.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wallClockPkgs run on virtual time: a host-clock read there makes two runs
// with one seed diverge (and breaks the Figure 7 sim/emu cross-validation).
var wallClockPkgs = map[string]bool{
	"internal/sim": true, "internal/fluid": true, "internal/waterfill": true, "internal/emu": true,
}

// wallClockFiles may touch the host clock: the emulator's rack clock (every
// emulated timestamp is an offset from its epoch) and the sharded engine's
// utilisation timers, which Results byte-identity excludes.
var wallClockFiles = map[string]bool{"internal/emu/clock.go": true, "internal/sim/shard.go": true}

// wallClockFuncs read or wait on the wall clock. Duration arithmetic,
// time.Unix and the like leak no real time and stay allowed.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true,
}

// quantityBases end a name that holds a rate, a size or a time span; such a
// field must spell its unit with one of unitSuffixes. A named type
// (simtime.Time, time.Duration) carries its unit already, so only
// predeclared numeric fields are checked.
var (
	quantityBases = []string{"rate", "size", "capacity", "bandwidth", "demand",
		"interval", "timeout", "delay", "latency"}
	unitSuffixes = []string{"gbps", "mbps", "kbps", "bps", "bits", "bytes", "kb", "mb", "gb",
		"pkts", "packets", "ns", "us", "ms", "ps", "sec", "secs", "seconds", "hops"}
	basicNumeric = map[string]bool{"int": true, "int8": true, "int16": true, "int32": true,
		"int64": true, "uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
		"uintptr": true, "float32": true, "float64": true, "byte": true}
)

// unitAgnostic fields (package.Type.Field) take whatever unit the caller's
// capacity has, so they deliberately carry none.
var unitAgnostic = map[string]bool{
	"waterfill.Flow.Demand":     true, // same units as Config.Capacity
	"waterfill.Config.Capacity": true, // the allocator is scale-free
	"routing.Demand.Rate":       true, // relative: 1 = full node injection bandwidth
}

// TestSourceRules applies no-wallclock and unit-suffix to every non-test Go
// file under the repository root, bench/ included. Run it alone with
// `go test -run TestSourceRules .`.
func TestSourceRules(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, msg := range checkSource(fset, filepath.ToSlash(path), f) {
			t.Error(msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkSource returns the no-wallclock and unit-suffix findings in one
// parsed file, whose slash-separated path is relative to the root.
func checkSource(fset *token.FileSet, path string, f *ast.File) []string {
	var msgs []string
	report := func(n ast.Node, format string, args ...any) {
		msgs = append(msgs, fset.Position(n.Pos()).String()+": "+fmt.Sprintf(format, args...))
	}
	timeName := "" // the file's local name for package time, if imported
	for _, imp := range f.Imports {
		if imp.Path.Value == `"time"` {
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	checkClock := wallClockPkgs[filepath.ToSlash(filepath.Dir(path))] && !wallClockFiles[path] &&
		timeName != "" && timeName != "." && timeName != "_"
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !checkClock {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeName && wallClockFuncs[sel.Sel.Name] {
				report(n, "wall-clock time.%s in a virtual-time package; use the simtime clock (no-wallclock)", sel.Sel.Name)
			}
		case *ast.TypeSpec:
			st, ok := n.Type.(*ast.StructType)
			if !ok || !n.Name.IsExported() {
				return true
			}
			for _, fld := range st.Fields.List {
				if id, ok := fld.Type.(*ast.Ident); !ok || !basicNumeric[id.Name] {
					continue
				}
				for _, name := range fld.Names {
					key := f.Name.Name + "." + n.Name.Name + "." + name.Name
					if name.IsExported() && needsUnit(name.Name) && !unitAgnostic[key] {
						report(name, "exported field %s holds a quantity but its name has no unit suffix (unit-suffix)", key)
					}
				}
			}
		}
		return true
	})
	return msgs
}

// needsUnit reports whether a name ends in a quantity base and not in a
// unit suffix.
func needsUnit(name string) bool {
	low := strings.ToLower(name)
	for _, u := range unitSuffixes {
		if strings.HasSuffix(low, u) {
			return false
		}
	}
	for _, b := range quantityBases {
		if strings.HasSuffix(low, b) {
			return true
		}
	}
	return false
}

// TestSourceRulesFindPlants holds each rule to a violation it must report
// and a shape it must pass, so a checker that silently stops matching
// cannot leave TestSourceRules green.
func TestSourceRulesFindPlants(t *testing.T) {
	for _, tc := range []struct {
		name, path, src string
		want            int
	}{
		{"wallclock-aliased", "internal/sim/x.go", "package sim\nimport wall \"time\"\n" +
			"func f() { t := wall.Now(); wall.Sleep(wall.Second); _ = wall.Since(t) }", 3},
		{"wallclock-emu", "internal/emu/emu.go", "package emu\nimport \"time\"\nvar t = time.Now()", 1},
		{"wallclock-allowlisted", "internal/emu/clock.go", "package emu\nimport \"time\"\nvar t = time.Now()", 0},
		{"wallclock-out-of-scope", "internal/core/x.go", "package core\nimport \"time\"\nvar t = time.Now()", 0},
		{"wallclock-conforming", "internal/sim/x.go", "package sim\nimport \"time\"\n" +
			"type clock struct{}\nfunc (clock) Now() int { return 0 }\n" +
			"func f() time.Duration { var c clock; return time.Duration(c.Now()) * time.Millisecond }", 0},
		{"unit-bare", "internal/p/x.go", "package p\ntype C struct {\n\tRate float64\n\tSize int64\n" +
			"\tRateGbps float64\n\tInterval simtime.Time\n\trate float64\n\tNodes int\n}\ntype c struct{ Rate float64 }", 2},
		{"unit-agnostic", "internal/waterfill/x.go", "package waterfill\ntype Flow struct{ Demand float64 }", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, tc.path, tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := checkSource(fset, tc.path, f); len(got) != tc.want {
				t.Errorf("%d findings, want %d: %q", len(got), tc.want, got)
			}
		})
	}
}

// fmaPkgs are the packages whose floating-point results must not depend on
// the machine: everything a simulated Result is computed by.
var fmaPkgs = []string{"sim", "core", "waterfill", "routing", "topology", "trafficgen", "stats", "simtime"}

// fmaInsn matches an arm64 fused multiply-add in a `-S` listing line, e.g.
// "0x0040 00064 (/path/waterfill.go:237)	FMADDD	F1, F2, F3, F4".
var fmaInsn = regexp.MustCompile(`\(([^()\s]+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[DS])\s`)

// TestNoFusedMultiplyAdd compiles fmaPkgs for arm64 and fails on any fused
// multiply-add. The Go spec lets a compiler fuse x*y + z into one rounding;
// amd64 never does and arm64 does, so the same seed would give different
// bits on the two. An explicit conversion forbids fusion: write
// float64(x*y) + z.
func TestNoFusedMultiplyAdd(t *testing.T) {
	args := []string{"build", "-o", os.DevNull, "-gcflags=r2c2/internal/...=-S"}
	for _, p := range fmaPkgs {
		args = append(args, "./internal/"+p)
	}
	// The build runs in a child process, so stat the sources here for go
	// test's result cache to see an edit to them; only the stat is wanted.
	files, _ := filepath.Glob("internal/*/*.go") // the pattern is well-formed
	for _, f := range files {
		_, _ = os.Stat(f)
	}
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	if !strings.Contains(string(out), "STEXT") {
		t.Fatalf("go build printed no assembly listing:\n%s", out)
	}
	for _, m := range fmaInsn.FindAllStringSubmatch(string(out), -1) {
		t.Errorf("%s: %s fuses a multiply and an add on arm64; write float64(x*y) + z", m[1], m[2])
	}
}

// interfaceMethods are called by the standard library through an interface
// (fmt.Stringer, error, sort.Interface, heap.Interface, flag.Value,
// rand.Source), so no file of the module names them at the call.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Set": true, "Int63": true, "Seed": true,
}

// testOnlyAllowed are the functions under internal/ and cmd/ that only tests
// call but that stay production code, each with the test that needs it. A
// name match cannot see the last three (sim, core and stats declare live
// functions of the same names); they are listed so that the list is
// complete.
var testOnlyAllowed = map[string]string{
	"topology.NewFoldedClos":        "broadcastmodel.TestClosBroadcastCost (§6 Clos claim)",
	"emu.Rack.StartHostLimitedFlow": "emu.TestEmuDemandEstimation (§3.3.2 Eq. 1)",
	"core.Visibility.Rows":          "sim.TestFinishTombstonesPerFlow, sim.TestCrashPurgeFreesRows",
	"stats.Counts.Values":           "sim.dumpResults (the golden digests), stats.TestCountsMatchesSample",
}

// TestNoTestOnlyCode fails on a top-level function or method under internal/
// or cmd/ whose name no non-test file of the module or of bench/ uses outside
// a function declaration: every package is internal, so such a function is a
// test fixture kept in production code. Move it into the _test.go file that
// uses it, delete it with its tests, or add it to testOnlyAllowed. A name
// match misses dead code whose name collides with live code.
func TestNoTestOnlyCode(t *testing.T) {
	fset, files := nonTestFiles(t)
	for _, msg := range testOnlyFuncs(fset, files) {
		t.Error(msg)
	}
}

// nonTestFiles parses every non-test .go file of the module and of bench/,
// keyed by slash-separated path.
func nonTestFiles(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		files[filepath.ToSlash(path)] = f
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// testOnlyFuncs returns the functions and methods under internal/ and cmd/
// among files (non-test files keyed by slash-separated path) whose names
// only function declarations use, and the testOnlyAllowed entries that name
// no declared function.
func testOnlyFuncs(fset *token.FileSet, files map[string]*ast.File) []string {
	used := map[string]bool{}
	for _, f := range files {
		decl := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decl[fd.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var msgs []string
	declared := map[string]bool{}
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/") && !strings.HasPrefix(path, "cmd/") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			key := f.Name.Name + "." + name
			if fd.Recv != nil {
				key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + name
			}
			declared[key] = true
			if used[name] || name == "main" || name == "init" || fd.Recv != nil && interfaceMethods[name] ||
				testOnlyAllowed[key] != "" {
				continue
			}
			msgs = append(msgs, fmt.Sprintf("%s: %s is called only by tests; move it into a _test.go file or delete it",
				fset.Position(fd.Pos()), key))
		}
	}
	for key := range testOnlyAllowed {
		if !declared[key] {
			msgs = append(msgs, "testOnlyAllowed names "+key+", which is not declared")
		}
	}
	sort.Strings(msgs)
	return msgs
}

// TestNoTestOnlyCodeFindsPlants holds the check to a planted test-only
// helper, next to the shapes it must pass: a function bench/ calls, a method
// called through a selector, a String method and an allowlisted function.
func TestNoTestOnlyCodeFindsPlants(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for path, src := range map[string]string{
		"internal/sim/x.go": "package sim\ntype T struct{}\nfunc helper() {}\nfunc Used() {}\n" +
			"func (T) Get() int { return 0 }\nfunc (T) String() string { return \"\" }",
		"internal/topology/x.go": "package topology\nfunc NewFoldedClos() {}",
		"bench/main.go":          "package main\nimport \"r2c2/internal/sim\"\nfunc main() { sim.Used(); _ = sim.T{}.Get() }",
	} {
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = f
	}
	var got []string
	for _, msg := range testOnlyFuncs(fset, files) {
		if strings.Contains(msg, "called only by tests") {
			got = append(got, msg)
		}
	}
	if len(got) != 1 || !strings.Contains(got[0], "sim.helper ") {
		t.Errorf("findings %q, want sim.helper alone", got)
	}
}

// recvType is the type name of a method receiver: T for T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// testOnlyStateAllowed are the struct fields under internal/ and cmd/ that
// production writes and only tests read but that stay, each with its test
// or reason.
var testOnlyStateAllowed = map[string]string{
	"emu.MbufPoolStats.Idle":       "emu.TestMbufPoolIdleCapReleases, emu.TestMbufCacheRefillReleaseFlush",
	"genetic.Result.Assignment":    "the search's answer: Example_adaptive prints its RPS/VLB split, Fig. 18 only its utility",
	"genetic.Result.Generations":   "genetic.TestOptimizeStallStops",
	"routing.phiKey.p":             "a map key: read by hashing",
	"sim.Results.Hops":             "sim.TestRunTwiceByteIdentical digests it",
	"topology.BroadcastTree.Root":  "bench/ calls BroadcastFIB.Tree; topology.TestBroadcastTreeSpanningShortest",
	"topology.BroadcastTree.Depth": "bench/ calls BroadcastFIB.Tree; topology.TestBroadcastTreeSpanningShortest",
	"topology.BroadcastTree.kids":  "bench/ calls BroadcastFIB.Tree; topology.TestBroadcastTreeSpanningShortest",
	"waterfill.Incremental.Solves": "bench/-only until ROADMAP item 2 deletes Incremental; waterfill.TestIncrementalOracle10kEvents",
}

// TestNoTestOnlyState fails on a named field of a struct declared under
// internal/ or cmd/ that no non-test file of the module or of bench/ reads:
// state that production code pays to keep up for tests alone. Writing a
// field is not reading it: the left side of an assignment, the operand of
// ++ or --, the receiver of an atomic Add, Store, Swap or CompareAndSwap
// whose result is discarded and a composite-literal key do not count. Read
// the value the test wants off something that remains, delete the field,
// or add it to testOnlyStateAllowed. Fields are matched by name, so a read
// of a same-named field elsewhere hides one.
func TestNoTestOnlyState(t *testing.T) {
	fset, files := nonTestFiles(t)
	for _, msg := range testOnlyState(fset, files, testOnlyStateAllowed) {
		t.Error(msg)
	}
}

// atomicWrites are the methods of sync/atomic's types that store: called
// as a statement, they only write their receiver.
var atomicWrites = map[string]bool{"Add": true, "Store": true, "Swap": true, "CompareAndSwap": true}

// testOnlyState returns the struct fields under internal/ and cmd/ among
// files (non-test files keyed by slash-separated path) that no file reads,
// and the allowed entries that name no such field.
func testOnlyState(fset *token.FileSet, files map[string]*ast.File, allowed map[string]string) []string {
	read := map[string]bool{}
	for _, f := range files {
		writes := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, e := range x.Lhs {
					writes[ast.Unparen(e)] = true
				}
			case *ast.IncDecStmt:
				writes[ast.Unparen(x.X)] = true
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
					if fn, ok := call.Fun.(*ast.SelectorExpr); ok && atomicWrites[fn.Sel.Name] {
						writes[ast.Unparen(fn.X)] = true
					}
				}
			case *ast.SelectorExpr:
				if !writes[x] {
					read[x.Sel.Name] = true
				}
			}
			return true
		})
	}
	var msgs []string
	flagged := map[string]bool{}
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/") && !strings.HasPrefix(path, "cmd/") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					key := f.Name.Name + "." + ts.Name.Name + "." + name.Name
					if read[name.Name] || name.Name == "_" {
						continue
					}
					flagged[key] = true
					if allowed[key] == "" {
						msgs = append(msgs, fmt.Sprintf("%s: %s is read only by tests; delete it or read what the test wants elsewhere",
							fset.Position(name.Pos()), key))
					}
				}
			}
			return true
		})
	}
	for key := range allowed {
		if !flagged[key] {
			msgs = append(msgs, "testOnlyStateAllowed names "+key+", which is not a field only tests read")
		}
	}
	sort.Strings(msgs)
	return msgs
}

// TestNoTestOnlyStateFindsPlants holds the check to a planted field that
// production writes in every way the rule names and only a test reads, and
// to a stale allowlist entry, next to the shapes it must pass: a field read
// in production, one read by bench/ and an allowlisted one.
func TestNoTestOnlyStateFindsPlants(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for path, src := range map[string]string{
		"internal/sim/x.go": "package sim\nimport \"sync/atomic\"\n" +
			"type T struct{ hits, live int; n atomic.Int64; Peak, kept int }\n" +
			"func (t *T) step() int { t.hits++; t.hits += 2; t.n.Add(1); t.Peak = 3; t.kept = 1; _ = T{hits: 1}; return t.live }",
		"bench/main.go": "package main\nfunc main() { var t struct{ Peak int }; _ = t.Peak }",
	} {
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = f
	}
	got := testOnlyState(fset, files, map[string]string{"sim.T.kept": "plant", "sim.T.gone": "stale"})
	want := []string{"sim.T.hits ", "sim.T.n ", "testOnlyStateAllowed names sim.T.gone,"}
	if len(got) != len(want) {
		t.Fatalf("findings %q, want %q", got, want)
	}
	for i := range want {
		if !strings.Contains(got[i], want[i]) {
			t.Fatalf("findings %q, want %q", got, want)
		}
	}
}
