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
// returning the surviving (non-suppressed) findings sorted by position.
// root must contain a go.mod (its module path anchors package import
// paths); subdirectories named testdata or vendor and hidden directories
// are skipped. //lint:ignore directives naming a rule outside the given
// analyzer set are reported, not honoured.
func Run(root string, analyzers []Analyzer) ([]Diagnostic, error) {
	diags, _, err := runSyntactic(root, analyzers, KnownRules(analyzers, nil))
	if err != nil {
		return nil, err
	}
	sortDiagnostics(diags)
	return diags, nil
}

// runSyntactic runs the per-package (syntactic) engine and additionally
// returns the module-wide ignore set, so RunAllKnown can filter the module
// analyzers' findings through the same directives.
func runSyntactic(root string, analyzers []Analyzer, known map[string]bool) ([]Diagnostic, ignoreSet, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
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
		return nil, nil, err
	}

	var all []Diagnostic
	ignores := ignoreSet{}
	for dir, files := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, nil, err
		}
		pkgPath := module
		if rel != "." {
			pkgPath = module + "/" + filepath.ToSlash(rel)
		}
		sort.Strings(files)
		fset := token.NewFileSet()
		pass := &Pass{Fset: fset, Path: pkgPath}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
			if err != nil {
				return nil, nil, fmt.Errorf("analysis: %w", err)
			}
			pass.Files = append(pass.Files, f)
		}
		diags, ig := check(pass, analyzers, known)
		all = append(all, diags...)
		for file, lines := range ig {
			for line, rules := range lines {
				for rule := range rules {
					ignores.add(file, line, rule)
				}
			}
		}
	}
	return all, ignores, nil
}

// CheckSource applies the analyzers to in-memory sources (filename ->
// content) forming one package with the given import path. This is the
// unit-test entry point. As in Run, an //lint:ignore naming a rule
// outside the analyzer set is reported rather than honoured.
func CheckSource(pkgPath string, sources map[string]string, analyzers []Analyzer) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	pass := &Pass{Fset: fset, Path: pkgPath}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, sources[name], parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pass.Files = append(pass.Files, f)
	}
	diags, _ := check(pass, analyzers, KnownRules(analyzers, nil))
	return diags, nil
}

// check runs the applicable analyzers over one package and filters the
// findings through the //lint:ignore directives, returning the surviving
// findings and the directives themselves.
func check(pass *Pass, analyzers []Analyzer, known map[string]bool) ([]Diagnostic, ignoreSet) {
	ignores, diags := collectIgnores(pass, known)
	for _, a := range analyzers {
		if !a.Applies(pass.Path) {
			continue
		}
		for _, d := range a.Check(pass) {
			if !ignores.covers(d) {
				diags = append(diags, d)
			}
		}
	}
	return diags, ignores
}

// ignoreSet records which (file, line, rule) triples are suppressed.
type ignoreSet map[string]map[int]map[string]bool

func (s ignoreSet) add(file string, line int, rule string) {
	if s[file] == nil {
		s[file] = map[int]map[string]bool{}
	}
	if s[file][line] == nil {
		s[file][line] = map[string]bool{}
	}
	s[file][line][rule] = true
}

// covers reports whether a diagnostic is suppressed: an ignore directive
// for its rule on the same line or the line directly above.
func (s ignoreSet) covers(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if rules := lines[line]; rules != nil && (rules[d.Rule] || rules["*"]) {
			return true
		}
	}
	return false
}

// collectIgnores parses every comment directive through ParseDirective
// (directives.go). `//lint:ignore rule[,rule...] reason` populates the
// ignore set; any directive that fails to parse — a missing reason, an
// unknown //r2c2: marker, a //lint: verb typo — is itself reported under
// the lint-directive rule, and, when a known-rule set is given, so is an
// ignore addressing a rule name outside it: a typo in a directive must
// surface as an error, never as a suppression (or an annotation) that
// silently does nothing.
func collectIgnores(pass *Pass, known map[string]bool) (ignoreSet, []Diagnostic) {
	set := ignoreSet{}
	var diags []Diagnostic
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, err := ParseDirective(c.Text)
				if err != nil {
					diags = append(diags, pass.Diag("lint-directive", c, "%s", err.Error()))
					continue
				}
				if d == nil || d.Kind != KindIgnore {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				for _, rule := range d.Rules {
					if known != nil && !known[rule] {
						diags = append(diags, pass.Diag("lint-directive", c,
							"//lint:ignore names unknown rule %q", rule))
						continue
					}
					set.add(pos.Filename, pos.Line, rule)
				}
			}
		}
	}
	return set, diags
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
