package analysis

import (
	"go/ast"
	"path/filepath"
)

// wallClockFuncs are the package time functions that read or wait on the
// wall clock. Pure constructors and conversions (time.Duration arithmetic,
// time.Unix, …) are fine: they leak no real time into a simulation.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// wallClockFiles are the only in-scope files that may touch the host
// clock, matched as import path + file name: the emulator's rack clock
// (every emulated timestamp is an offset from its epoch, and pacing and
// the recompute period run on host time by design) and the sharded
// engine's utilisation timers, which Results byte-identity excludes.
var wallClockFiles = pkgScope{[]string{"internal/emu/clock.go", "internal/sim/shard.go"}}

// noWallclock forbids wall-clock reads in virtual-time packages: the
// simulator must advance only through the simtime clock, or two runs with
// the same seed diverge (breaking the Figure 7 sim/emu cross-validation).
type noWallclock struct{ pkgScope }

// NewNoWallclock builds the no-wallclock rule scoped to the given package
// path suffixes (empty = all packages).
func NewNoWallclock(pkgs ...string) Analyzer { return &noWallclock{pkgScope{pkgs}} }

func (*noWallclock) Name() string { return "no-wallclock" }
func (*noWallclock) Doc() string {
	return "forbid time.Now/Sleep/Since/After in virtual-time (simtime) packages"
}

func (a *noWallclock) Check(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pass.Files {
		if pass.IsTestFile(f) || wallClockFiles.Applies(pass.Path+"/"+filepath.Base(pass.Filename(f))) {
			// Test harnesses may legitimately time out on the wall clock.
			continue
		}
		timeName := importName(f, "time")
		if timeName == "" || timeName == "." || timeName == "_" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeName && wallClockFuncs[sel.Sel.Name] {
				diags = append(diags, pass.Diag(a.Name(), call,
					"wall-clock time.%s in virtual-time package %s; use the simtime clock",
					sel.Sel.Name, pass.Path))
			}
			return true
		})
	}
	return diags
}
