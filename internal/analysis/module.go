package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
)

// ModuleAnalyzer is a two-phase, type-aware rule. Phase one (Collect)
// runs once per package with full type information and returns that
// package's facts — whatever the rule needs to remember: map-order loops,
// call edges, and which functions schedule events or publish across
// goroutines. Phase two (Resolve) sees every package's facts at once and
// reports the findings that only exist module-wide: a map-order loop that
// schedules an event through a helper in another package.
//
// The split mirrors how the findings are actually computed: facts are
// local and cheap, the judgement needs the whole program.
type ModuleAnalyzer interface {
	// Name is the rule identifier used in findings.
	Name() string
	// Doc is a one-line description of the rule.
	Doc() string
	// Applies reports whether Collect runs on a package path.
	Applies(pkgPath string) bool
	// Collect gathers one package's facts. A nil return is allowed and
	// simply contributes nothing to Resolve.
	Collect(pass *TypedPass) any
	// Resolve combines every package's facts into findings.
	Resolve(facts []PackageFacts) []Diagnostic
}

// PackageFacts pairs one package with what a ModuleAnalyzer collected
// from it.
type PackageFacts struct {
	Path  string
	Facts any
}

// DefaultModule returns the R2C2 module-wide rule set (run alongside the
// syntactic rules of Default by RunAll).
func DefaultModule() []ModuleAnalyzer {
	return []ModuleAnalyzer{
		// The sharded engine (ROADMAP) preserves byte-identical output
		// only if no observable effect is ordered by Go's randomised map
		// iteration. Scoped to the deterministic packages; the emulator's
		// event order is set by goroutine scheduling, not by its maps.
		NewDetMapIter("internal/sim", "internal/core", "internal/waterfill",
			"internal/routing", "internal/topology", "internal/experiments"),
	}
}

// runModule applies the module analyzers to a loaded module and returns
// their findings.
func runModule(mod *Module, analyzers []ModuleAnalyzer) []Diagnostic {
	var all []Diagnostic
	for _, a := range analyzers {
		var facts []PackageFacts
		for _, pass := range mod.Passes {
			if !a.Applies(pass.Path) {
				continue
			}
			if f := a.Collect(pass); f != nil {
				facts = append(facts, PackageFacts{Path: pass.Path, Facts: f})
			}
		}
		all = append(all, a.Resolve(facts)...)
	}
	return all
}

// RunAll is the full entry point: the per-package syntactic rules (test
// files included) and the module-wide type-aware rules (non-test files),
// with the findings sorted by position.
func RunAll(root string, syntactic []Analyzer, module []ModuleAnalyzer) ([]Diagnostic, error) {
	diags, err := Run(root, syntactic)
	if err != nil {
		return nil, err
	}
	mod, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	diags = append(diags, runModule(mod, module)...)
	sortDiagnostics(diags)
	return diags, nil
}

// CheckSourceModule type-checks a set of in-memory packages (import path
// -> filename -> content, type-checked in dependency order) and applies
// the module analyzers. This is the unit-test entry point for two-phase
// rules.
func CheckSourceModule(pkgs map[string]map[string]string, analyzers []ModuleAnalyzer) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	imp := &moduleImporter{
		pkgs: map[string]*types.Package{},
		std:  importer.ForCompiler(fset, "source", nil),
	}
	conf := types.Config{Importer: imp}

	parsed := map[string][]*ast.File{}
	imports := map[string][]string{}
	paths := make([]string, 0, len(pkgs))
	for path, files := range pkgs {
		paths = append(paths, path)
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, files[name], 0)
			if err != nil {
				return nil, err
			}
			parsed[path] = append(parsed[path], f)
			for _, spec := range f.Imports {
				p := spec.Path.Value[1 : len(spec.Path.Value)-1]
				if _, ok := pkgs[p]; ok {
					imports[path] = append(imports[path], p)
				}
			}
		}
	}
	sort.Strings(paths)
	var order []string
	state := map[string]int{}
	var visit func(string)
	visit = func(p string) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		deps := append([]string(nil), imports[p]...)
		sort.Strings(deps)
		for _, d := range deps {
			visit(d)
		}
		order = append(order, p)
	}
	for _, p := range paths {
		visit(p)
	}

	mod := &Module{Fset: fset}
	for _, path := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		pkg, err := conf.Check(path, fset, parsed[path], info)
		if err != nil {
			return nil, err
		}
		imp.pkgs[path] = pkg
		pass := &TypedPass{
			Pass: Pass{Fset: fset, Path: path, Files: parsed[path]},
			Pkg:  pkg,
			Info: info,
		}
		mod.Passes = append(mod.Passes, pass)
	}
	diags := runModule(mod, analyzers)
	sortDiagnostics(diags)
	return diags, nil
}

// sortDiagnostics orders findings by file, line, rule, then column and
// message. The full tie-break matters: Run walks a map of
// directories and Resolve phases iterate maps, so without a total order
// two runs over the same tree could interleave equal-(file,line,rule)
// findings differently and break byte-identical output.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		if diags[i].Pos.Column != diags[j].Pos.Column {
			return diags[i].Pos.Column < diags[j].Pos.Column
		}
		return diags[i].Message < diags[j].Message
	})
}
