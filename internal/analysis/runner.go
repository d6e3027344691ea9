package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Run parses every Go package under root and applies the analyzers,
// returning the findings sorted by position. root must contain a go.mod
// (its module path anchors package import paths); subdirectories named
// testdata or vendor and hidden directories are skipped.
func Run(root string, analyzers []Analyzer) ([]Diagnostic, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs := map[string][]string{} // dir -> .go files
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
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var all []Diagnostic
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
		fset := token.NewFileSet()
		pass := &Pass{Fset: fset, Path: pkgPath}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			pass.Files = append(pass.Files, f)
		}
		all = append(all, check(pass, analyzers)...)
	}
	sortDiagnostics(all)
	return all, nil
}

// CheckSource applies the analyzers to in-memory sources (filename ->
// content) forming one package with the given import path. This is the
// unit-test entry point.
func CheckSource(pkgPath string, sources map[string]string, analyzers []Analyzer) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	pass := &Pass{Fset: fset, Path: pkgPath}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, sources[name], 0)
		if err != nil {
			return nil, err
		}
		pass.Files = append(pass.Files, f)
	}
	return check(pass, analyzers), nil
}

// check runs the applicable analyzers over one package.
func check(pass *Pass, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Applies(pass.Path) {
			diags = append(diags, a.Check(pass)...)
		}
	}
	return diags
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}
