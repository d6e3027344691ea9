package r2c2

import (
	"testing"

	"r2c2/internal/analysis"
)

// TestSourceRules runs the determinism and naming rules of package
// internal/analysis over the module: no host clock in the virtual-time
// packages (no-wallclock), a unit in every exported quantity field's name
// (unit-suffix), and no order-sensitive effect of a map range in the
// deterministic packages (det-map-iter). The rules hold their own
// allowlists; there is no suppression comment. Run it alone with
// `go test -run TestSourceRules .`.
func TestSourceRules(t *testing.T) {
	diags, err := analysis.RunAll(".", analysis.Default(), analysis.DefaultModule())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}
