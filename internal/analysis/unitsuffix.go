package analysis

import (
	"go/ast"
	"strings"
)

// quantityBases are name endings that denote a physical quantity: a field
// so named holds a rate, a size or a time span, and its unit must be
// spelled in the name.
var quantityBases = []string{
	"rate", "size", "capacity", "bandwidth", "demand",
	"interval", "timeout", "delay", "latency",
}

// unitSuffixes are the accepted unit spellings. A name ending in one of
// these is self-documenting regardless of its base.
var unitSuffixes = []string{
	"gbps", "mbps", "kbps", "bps", "bits", "bytes", "kb", "mb", "gb",
	"pkts", "packets", "ns", "us", "ms", "ps", "sec", "secs", "seconds",
	"hops",
}

// basicNumeric are the predeclared numeric types. Only these are flagged:
// a named type like simtime.Time or time.Duration carries its unit in the
// type and needs no suffix.
var basicNumeric = map[string]bool{
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
	"uintptr": true, "float32": true, "float64": true, "byte": true,
}

// unitAgnostic are the exported quantity fields that deliberately carry
// no unit, keyed package.Type.Field: they take whatever unit the caller's
// capacity has.
var unitAgnostic = map[string]bool{
	"waterfill.Flow.Demand":     true, // same units as Config.Capacity
	"waterfill.Config.Capacity": true, // the allocator is scale-free
	"routing.Demand.Rate":       true, // relative: 1 = full node injection bandwidth
}

// unitSuffix requires exported numeric fields of exported structs that
// hold rates or sizes to carry a unit suffix (Gbps, Bytes, Kbps, …). The
// paper's arithmetic crosses Gbps, Mbps, Kbps (broadcast demand), bytes
// and bits constantly — a bare "Rate float64" is how a 1000× error slips
// through review.
type unitSuffix struct{ pkgScope }

// NewUnitSuffix builds the unit-suffix rule scoped to the given package
// path suffixes (empty = all packages).
func NewUnitSuffix(pkgs ...string) Analyzer { return &unitSuffix{pkgScope{pkgs}} }

func (*unitSuffix) Name() string { return "unit-suffix" }
func (*unitSuffix) Doc() string {
	return "exported numeric rate/size fields must carry a unit suffix (Gbps, Bytes, Ns, …)"
}

func (a *unitSuffix) Check(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if !isBasicNumeric(fld.Type) {
					continue
				}
				for _, name := range fld.Names {
					key := f.Name.Name + "." + ts.Name.Name + "." + name.Name
					if name.IsExported() && needsUnit(name.Name) && !unitAgnostic[key] {
						diags = append(diags, pass.Diag(a.Name(), name,
							"exported field %s holds a quantity but its name has no unit suffix (Gbps, Bytes, Ns, …)", key))
					}
				}
			}
			return true
		})
	}
	return diags
}

// isBasicNumeric reports whether the type expression is a predeclared
// numeric type.
func isBasicNumeric(t ast.Expr) bool {
	id, ok := t.(*ast.Ident)
	return ok && basicNumeric[id.Name]
}

// needsUnit reports whether a name denotes a quantity but lacks a unit
// suffix.
func needsUnit(name string) bool {
	low := strings.ToLower(name)
	for _, u := range unitSuffixes {
		if strings.HasSuffix(low, u) {
			return false
		}
	}
	for _, b := range quantityBases {
		if strings.HasSuffix(low, b) {
			return true
		}
	}
	return false
}
