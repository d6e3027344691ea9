package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// TypedPass is a Pass with full go/types information: the module-wide
// (two-phase) analyzers need to see a value's declared type and the
// objects an identifier resolves to, not just its spelling.
//
// Typed passes cover the non-test files of a package: the invariant the
// module rule guards (map-order determinism) lives in production code, and excluding _test.go keeps every package a single
// type-checkable unit.
type TypedPass struct {
	Pass
	Pkg  *types.Package
	Info *types.Info
}

// Module is the fully loaded, type-checked module: one TypedPass per
// package, in dependency order (imports precede importers).
type Module struct {
	Fset   *token.FileSet
	Passes []*TypedPass
}

// moduleImporter resolves module-internal import paths from the packages
// already checked and everything else (the standard library) through the
// from-source importer, so the loader needs no compiled export data.
type moduleImporter struct {
	pkgs map[string]*types.Package
	std  types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// LoadModule parses and type-checks every non-test package under root.
// root must contain a go.mod; testdata, vendor and hidden directories are
// skipped, and build-constrained files are selected as an ordinary
// release build would (no "debug" tag).
func LoadModule(root string) (*Module, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs := map[string][]string{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	type parsedPkg struct {
		path    string
		files   []*ast.File
		imports map[string]bool // module-internal imports only
	}
	byPath := map[string]*parsedPkg{}
	for dir, files := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := module
		if rel != "." {
			pkgPath = module + "/" + filepath.ToSlash(rel)
		}
		sort.Strings(files)
		pp := &parsedPkg{path: pkgPath, imports: map[string]bool{}}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			if !buildIncluded(f) {
				continue
			}
			pp.files = append(pp.files, f)
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == module || strings.HasPrefix(p, module+"/") {
					pp.imports[p] = true
				}
			}
		}
		if len(pp.files) > 0 {
			byPath[pkgPath] = pp
		}
	}

	// Topological order: imports first, then importers; ties broken by
	// path so the load order (and any error) is deterministic.
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	order := make([]string, 0, len(paths))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		deps := make([]string, 0, len(byPath[p].imports))
		for d := range byPath[p].imports {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		for _, d := range deps {
			if byPath[d] == nil {
				continue // import of a module path with no source here
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	imp := &moduleImporter{
		pkgs: map[string]*types.Package{},
		std:  importer.ForCompiler(fset, "source", nil),
	}
	conf := types.Config{Importer: imp}
	mod := &Module{Fset: fset}
	for _, p := range order {
		pp := byPath[p]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		pkg, err := conf.Check(p, fset, pp.files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", p, err)
		}
		imp.pkgs[p] = pkg
		mod.Passes = append(mod.Passes, &TypedPass{
			Pass: Pass{Fset: fset, Path: p, Files: pp.files},
			Pkg:  pkg,
			Info: info,
		})
	}
	return mod, nil
}

// buildIncluded reports whether a release build (GOOS/GOARCH tags only, no
// custom tags such as "debug") selects the file. The module's debug-only
// invariant files would otherwise collide with their release twins.
func buildIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" ||
					tag == "go1" || strings.HasPrefix(tag, "go1.")
			})
		}
	}
	return true
}
