package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// This file is the single parser for every comment directive the analyzer
// understands. Directives are load-bearing: a //lint:ignore suppresses a
// finding, a //r2c2:hotpath pulls a call tree into the allocation budget.
// A malformed directive must therefore surface as a deterministic error —
// never as a comment that silently stops doing its job (the rule would
// simply not fire, which is exactly the failure mode directives exist to
// prevent). FuzzParseDirective locks in that contract.

// Directive kinds. LintIgnore carries rule names and a mandatory reason;
// the //r2c2:hotpath marker carries an optional trailing note.
const (
	KindIgnore  = "ignore"  // //lint:ignore rule[,rule...] reason
	KindHotpath = "hotpath" // //r2c2:hotpath [note]
)

// Directive is one parsed comment directive.
type Directive struct {
	Kind  string
	Rules []string // KindIgnore: the rules being suppressed
	Note  string   // KindIgnore: the mandatory reason; others: optional text
}

// ParseDirective parses one comment's text. It returns (nil, nil) for a
// comment that is not a directive at all, the parsed directive on
// success, and a non-nil error for anything that starts like a directive
// but does not parse — the error is deterministic in the input, and
// callers must report it rather than skip the comment.
func ParseDirective(text string) (*Directive, error) {
	switch {
	case strings.HasPrefix(text, "//lint:"):
		return parseLint(strings.TrimPrefix(text, "//lint:"))
	case strings.HasPrefix(text, "//r2c2:"):
		return parseR2C2(strings.TrimPrefix(text, "//r2c2:"))
	}
	return nil, nil
}

// parseLint handles the //lint: namespace. Only "ignore" exists; any
// other verb is a typo that would otherwise masquerade as prose.
func parseLint(rest string) (*Directive, error) {
	verb, tail, _ := strings.Cut(rest, " ")
	if verb != "ignore" {
		return nil, fmt.Errorf("unknown //lint: directive %q (only //lint:ignore exists)", verb)
	}
	fields := strings.Fields(tail)
	if len(fields) < 2 {
		return nil, fmt.Errorf("malformed //lint:ignore: want \"//lint:ignore rule reason\"")
	}
	rules := strings.Split(fields[0], ",")
	for _, r := range rules {
		if r == "" {
			return nil, fmt.Errorf("malformed //lint:ignore: empty rule name in %q", fields[0])
		}
	}
	return &Directive{Kind: KindIgnore, Rules: rules, Note: strings.Join(fields[1:], " ")}, nil
}

// parseR2C2 handles the //r2c2: namespace: a known marker name, optionally
// followed by explanatory text after a space.
func parseR2C2(rest string) (*Directive, error) {
	name, note, _ := strings.Cut(rest, " ")
	switch name {
	case KindHotpath:
		return &Directive{Kind: name, Note: strings.TrimSpace(note)}, nil
	case "":
		return nil, fmt.Errorf("malformed //r2c2: directive: missing name")
	}
	return nil, fmt.Errorf("unknown //r2c2: directive %q (known: %s)", name, KindHotpath)
}

// hasDirective reports whether a doc comment group carries the given
// //r2c2: marker kind. Malformed directives are handled (reported) by
// collectIgnores, which scans every comment; here they simply don't match.
func hasDirective(doc *ast.CommentGroup, kind string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if d, err := ParseDirective(c.Text); err == nil && d != nil && d.Kind == kind {
			return true
		}
	}
	return false
}
