package analysis

import (
	"fmt"
	"strings"
)

// This file is the single parser for every comment directive the analyzer
// understands. Directives are load-bearing: a //lint:ignore suppresses a
// finding. A malformed directive must therefore surface as a deterministic error —
// never as a comment that silently stops doing its job (the rule would
// simply not fire, which is exactly the failure mode directives exist to
// prevent). FuzzParseDirective locks in that contract.

// KindIgnore is the one directive kind: //lint:ignore rule[,rule...] reason.
const KindIgnore = "ignore"

// Directive is one parsed comment directive.
type Directive struct {
	Kind  string
	Rules []string // the rules being suppressed
	Note  string   // the mandatory reason
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

// parseR2C2 handles the //r2c2: namespace, which holds no marker any more:
// a retired allocation or ownership marker left behind, or anything else
// written there, is reported rather than read as an annotation still
// in force.
func parseR2C2(rest string) (*Directive, error) {
	name, _, _ := strings.Cut(rest, " ")
	if name == "" {
		return nil, fmt.Errorf("malformed //r2c2: directive: missing name")
	}
	return nil, fmt.Errorf("unknown //r2c2: directive %q (the namespace has no markers)", name)
}
