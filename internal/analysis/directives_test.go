package analysis

import (
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text    string
		kind    string // "" = not a directive
		rules   []string
		wantErr string // substring; "" = no error
	}{
		{"// ordinary comment", "", nil, ""},
		{"//r2c2 not a directive (no colon)", "", nil, ""},
		{"//lint:ignore no-wallclock pacing is intentional", KindIgnore, []string{"no-wallclock"}, ""},
		{"//lint:ignore a,b two rules share one reason", KindIgnore, []string{"a", "b"}, ""},
		{"//lint:ignore no-wallclock", "", nil, "malformed //lint:ignore"},
		{"//lint:ignore", "", nil, "malformed //lint:ignore"},
		{"//lint:ignore a,,b empty rule slot", "", nil, "empty rule name"},
		{"//lint:ignore ,a leading comma", "", nil, "empty rule name"},
		{"//lint:file-ignore foo whole-file suppression is not supported", "", nil, "unknown //lint: directive"},
		{"//r2c2:hotpath", "", nil, "unknown //r2c2: directive"},
		{"//r2c2:hotpath the event dispatch tree", "", nil, "unknown //r2c2: directive"},
		{"//r2c2:shardowned", "", nil, "unknown //r2c2: directive"},
		{"//r2c2:boundary epoch queue push", "", nil, "unknown //r2c2: directive"},
		{"//r2c2:hotpath-annotated", "", nil, "unknown //r2c2: directive"},
		{"//r2c2:shard-owned", "", nil, "unknown //r2c2: directive"},
		{"//r2c2:", "", nil, "missing name"},
		{"//r2c2: hotpath", "", nil, "missing name"},
	}
	for _, tc := range cases {
		d, err := ParseDirective(tc.text)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseDirective(%q) error = %v, want substring %q", tc.text, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDirective(%q) unexpected error: %v", tc.text, err)
			continue
		}
		if tc.kind == "" {
			if d != nil {
				t.Errorf("ParseDirective(%q) = %+v, want nil (not a directive)", tc.text, d)
			}
			continue
		}
		if d == nil || d.Kind != tc.kind {
			t.Errorf("ParseDirective(%q) = %+v, want kind %q", tc.text, d, tc.kind)
			continue
		}
		if len(tc.rules) > 0 {
			if len(d.Rules) != len(tc.rules) {
				t.Errorf("ParseDirective(%q) rules = %v, want %v", tc.text, d.Rules, tc.rules)
				continue
			}
			for i := range tc.rules {
				if d.Rules[i] != tc.rules[i] {
					t.Errorf("ParseDirective(%q) rules = %v, want %v", tc.text, d.Rules, tc.rules)
				}
			}
		}
	}
}

// TestMalformedDirectiveIsReported locks in the "never silently skipped"
// contract end to end: a comment that starts like a directive but does
// not parse must surface as a lint-directive finding.
func TestMalformedDirectiveIsReported(t *testing.T) {
	for _, marker := range []string{
		"//r2c2:hotpth typo in the marker name",
		// The retired ownership and allocation markers are no longer
		// directives: one left behind must be reported, not read as an
		// annotation still in force.
		"//r2c2:shardowned stale ownership marker",
		"//r2c2:hotpath stale allocation marker",
	} {
		src := "package p\n\n" + marker + "\ntype Engine struct{ n int }\n"
		diags, err := CheckSource("m/p", map[string]string{"src.go": src}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 1 || diags[0].Rule != "lint-directive" ||
			!strings.Contains(diags[0].Message, "unknown //r2c2: directive") {
			t.Fatalf("%s: want one lint-directive finding, got %v", marker, diags)
		}
	}
}

// FuzzParseDirective asserts the parser contract on arbitrary input:
// no panics, deterministic results, and — for anything in the directive
// namespaces — either a parsed directive or an error, never (nil, nil).
// A directive-shaped comment that parses to nothing would be a rule
// silently switched off, which is the exact failure mode the parser
// exists to prevent.
func FuzzParseDirective(f *testing.F) {
	seeds := []string{
		"//lint:ignore no-wallclock reason",
		"//lint:ignore a,b reason text",
		"//lint:ignore",
		"//lint:ignore ,, reason",
		"//lint:file-ignore x y",
		"//r2c2:hotpath", // retired marker, as below
		"//r2c2:hotpath note",
		"//r2c2:shardowned", // retired marker: an error now, like any unknown name
		"//r2c2:hotpath-annotated",
		"//r2c2:",
		"//r2c2:bogus",
		"//r2c2:hotpath\ttab note",
		"// plain comment",
		"//lint:",
		"//",
		"",
		"//r2c2:hotpath\u00a0nbsp",
		"//lint:ignore rule reason",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d1, err1 := ParseDirective(text)
		d2, err2 := ParseDirective(text)

		// Deterministic: same input, same outcome.
		if (err1 == nil) != (err2 == nil) ||
			(err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("nondeterministic error for %q: %v vs %v", text, err1, err2)
		}
		if (d1 == nil) != (d2 == nil) {
			t.Fatalf("nondeterministic directive for %q", text)
		}

		inNamespace := strings.HasPrefix(text, "//lint:") || strings.HasPrefix(text, "//r2c2:")
		if inNamespace && d1 == nil && err1 == nil {
			t.Fatalf("directive-shaped comment %q parsed to nothing: would be silently skipped", text)
		}
		if !inNamespace && (d1 != nil || err1 != nil) {
			t.Fatalf("non-directive %q parsed to %+v / %v", text, d1, err1)
		}
		if d1 != nil && err1 != nil {
			t.Fatalf("both directive and error for %q", text)
		}
		if d1 != nil && d1.Kind == KindIgnore {
			if len(d1.Rules) == 0 {
				t.Fatalf("ignore directive %q with no rules", text)
			}
			for _, r := range d1.Rules {
				if r == "" {
					t.Fatalf("ignore directive %q with empty rule name", text)
				}
			}
			if d1.Note == "" {
				t.Fatalf("ignore directive %q with empty reason", text)
			}
		}
	})
}
