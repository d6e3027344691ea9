// Command r2c2-lint runs the repo's custom static-analysis rules (package
// internal/analysis): the determinism invariants that keep the simulator
// bit-reproducible and that no test catches.
//
// Usage:
//
//	r2c2-lint ./...                        # lint the whole module
//	r2c2-lint -json ./...                  # machine-readable report
//	r2c2-lint -rules det-map-iter ./...    # run only the named rules
//	r2c2-lint -list                        # list the rules and their scope
//
// -json emits an object {analyzer_version, rules, findings}: the version
// and the rule set pin down what a clean report actually attests to.
//
// //lint:ignore directives are always validated against the full rule
// set, even under -rules, so a filtered run never misreports a directive
// naming an unselected rule as unknown.
//
// It exits non-zero when any finding survives //lint:ignore suppression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"r2c2/internal/analysis"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "r2c2-lint:", err)
		os.Exit(1)
	}
}

// errFindings signals a clean run that found violations (distinct from an
// operational failure, though both exit non-zero).
type errFindings int

func (e errFindings) Error() string { return fmt.Sprintf("%d finding(s)", int(e)) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("r2c2-lint", flag.ContinueOnError)
	fs.SetOutput(stdout)
	jsonOut := fs.Bool("json", false, "emit a JSON report {analyzer_version, rules, findings}")
	listRules := fs.Bool("list", false, "list the rules and exit")
	ruleFilter := fs.String("rules", "", "comma-separated rule names to run (default: every rule)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rules := analysis.Default()
	moduleRules := analysis.DefaultModule()
	if *listRules {
		for _, a := range rules {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name(), a.Doc())
		}
		for _, a := range moduleRules {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name(), a.Doc())
		}
		return nil
	}

	// Directives are validated against the full rule set regardless of
	// the filter; the filter only selects which rules run.
	known := analysis.KnownRules(rules, moduleRules)
	if *ruleFilter != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*ruleFilter, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				return fmt.Errorf("unknown rule %q (see r2c2-lint -list)", name)
			}
			want[name] = true
		}
		var selRules []analysis.Analyzer
		for _, a := range rules {
			if want[a.Name()] {
				selRules = append(selRules, a)
			}
		}
		var selModule []analysis.ModuleAnalyzer
		for _, a := range moduleRules {
			if want[a.Name()] {
				selModule = append(selModule, a)
			}
		}
		rules, moduleRules = selRules, selModule
	}

	root := "."
	if fs.NArg() > 0 {
		// Accept "./..." and friends: the runner always recurses.
		root = strings.TrimSuffix(fs.Arg(0), "...")
		root = strings.TrimSuffix(root, string(filepath.Separator))
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
	}
	diags, err := analysis.RunAllKnown(root, rules, moduleRules, known)
	if err != nil {
		return err
	}
	if *jsonOut {
		if diags == nil {
			diags = []analysis.Diagnostic{} // a clean run encodes findings as [], not null
		}
		ran := make([]string, 0, len(rules)+len(moduleRules))
		for _, a := range rules {
			ran = append(ran, a.Name())
		}
		for _, a := range moduleRules {
			ran = append(ran, a.Name())
		}
		sort.Strings(ran)
		rep := struct {
			AnalyzerVersion int                   `json:"analyzer_version"`
			Rules           []string              `json:"rules"`
			Findings        []analysis.Diagnostic `json:"findings"`
		}{analysis.Version, ran, diags}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return errFindings(len(diags))
	}
	return nil
}
