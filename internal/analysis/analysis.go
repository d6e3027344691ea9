// Package analysis is a stdlib-only static-analysis engine enforcing the
// determinism invariants the R2C2 evaluation rests on.
//
// The headline claim of the paper — packet-level simulation and rack
// emulation agree (§5, Figure 7) — only holds if the simulator is
// bit-for-bit deterministic (virtual clock, no wall-clock leakage, no
// effect ordered by map iteration). Seeded randomness and race-freedom are
// held by the golden, byte-identity and -race tests; what those miss is
// invisible to the type system too, so this package checks it statically:
// a small analyzer framework (built on go/ast, go/parser and go/types only,
// keeping go.mod dependency-free) plus the R2C2-specific rules wired up in
// Default and DefaultModule.
//
// There is no suppression comment: a rule's deliberate exceptions are
// explicit allowlists in the rule itself (wallClockFiles, unitAgnostic),
// and the root package's TestSourceRules runs the full set over the
// module on every `go test ./...`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Diagnostic is one finding: a rule violation at a position.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
}

// Pass is the unit of work handed to an analyzer: every parsed file of one
// package directory (external test packages included — determinism rules
// apply to test code too).
type Pass struct {
	Fset *token.FileSet
	// Path is the package import path, e.g. "r2c2/internal/sim".
	Path  string
	Files []*ast.File
}

// Filename returns the name of the file a node belongs to.
func (p *Pass) Filename(n ast.Node) string {
	return p.Fset.Position(n.Pos()).Filename
}

// IsTestFile reports whether the file holding n is a _test.go file.
func (p *Pass) IsTestFile(n ast.Node) bool {
	return strings.HasSuffix(p.Filename(n), "_test.go")
}

// Diag builds a Diagnostic for a node.
func (p *Pass) Diag(rule string, n ast.Node, format string, args ...interface{}) Diagnostic {
	return Diagnostic{Rule: rule, Pos: p.Fset.Position(n.Pos()), Message: fmt.Sprintf(format, args...)}
}

// Analyzer is one syntactic rule.
type Analyzer interface {
	// Name is the rule identifier used in findings.
	Name() string
	// Doc is a one-line description of the rule.
	Doc() string
	// Applies reports whether the rule runs on a package path.
	Applies(pkgPath string) bool
	// Check inspects one package and returns its findings.
	Check(pass *Pass) []Diagnostic
}

// pkgScope implements Applies by import-path suffix match; an empty list
// matches every package.
type pkgScope struct{ pkgs []string }

func (s pkgScope) Applies(pkgPath string) bool {
	if len(s.pkgs) == 0 {
		return true
	}
	for _, p := range s.pkgs {
		if pkgPath == p || strings.HasSuffix(pkgPath, "/"+p) {
			return true
		}
	}
	return false
}

// Default returns the R2C2 rule set: each analyzer scoped to the packages
// whose invariants it protects (see DESIGN.md §6, "Determinism & concurrency
// invariants").
func Default() []Analyzer {
	return []Analyzer{
		// The simulator stack must run on virtual time only: any wall-clock
		// read desynchronises two runs with the same seed.
		// internal/emu runs in real time by design, but its wall-clock reads
		// are confined to the audited chokepoint in emu/clock.go; everywhere
		// else in the package the rule applies with full force (the FCT
		// timestamps once leaked absolute host time this way).
		NewNoWallclock("internal/sim", "internal/fluid", "internal/waterfill", "internal/emu"),
		// Rates and sizes cross Gbps/Mbps/Kbps/bytes boundaries constantly;
		// exported quantities must carry their unit in the name.
		NewUnitSuffix(),
	}
}

// importName returns the local name the file binds an import path to, or
// "" if the file does not import it. A dot-import returns ".".
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		// Default name: last path element.
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// exprString renders a simple expression (identifiers and selectors) for
// matching and messages; other node kinds render as "…".
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.CallExpr:
		return exprString(v.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(v.X) + "[…]"
	default:
		return "…"
	}
}
