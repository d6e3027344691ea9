package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// detMapIter flags `range` over a map in the deterministic packages when
// the loop body reaches an order-sensitive sink. Go randomises map
// iteration order per run, so any observable effect ordered by it breaks
// the byte-identical-output contract the sharded engine (ROADMAP) and the
// sim/emu parity tests rest on.
//
// The sink lattice (DESIGN.md §8):
//
//   - slice append of loop-derived values to a variable declared outside
//     the loop, unless the slice is sorted later in the same function
//     (the collect-keys-then-sort idiom);
//   - event scheduling — a call that directly or transitively reaches a
//     scheduling primitive (Engine.After/schedule, Network.Inject, the
//     time package's timers) with loop-derived data: scheduling order
//     assigns event sequence numbers, which are the FIFO tie-break;
//   - floating-point accumulation into an outer variable (FP addition is
//     not associative, so the sum's low bits depend on iteration order);
//   - order-dependent assignment to an outer variable (last-write-wins,
//     which includes the if-compare argmin/argmax idiom: ties between
//     equal values resolve in iteration order);
//   - builtin min/max folded into an outer variable (same tie problem);
//   - cross-goroutine publication — channel send or close, goroutine
//     launch, an atomic write, or a call that transitively does any of
//     those with loop-derived data: another goroutine observes the
//     per-iteration effects in map order;
//   - formatted output (fmt.Print*/Fprint*) of loop-derived values.
//
// Recognised safe shapes: commutative integer/bitwise reduction (+, -, *,
// |, &, ^ and counters — exact arithmetic is order-free), delete from any
// map, writes to a map index (set semantics), work confined to variables
// declared inside the loop body, and calls that carry no loop-derived
// data (n identical effects are order-free). Early `break`/`return`
// element selection is deliberately outside the lattice: the dominant
// shape is a uniqueness search, which is order-free; the lattice trades
// that soundness hole for a tree that can actually be driven to zero.
//
// Collect classifies each map-range loop locally and records every
// function's callees plus whether it directly schedules or publishes;
// Resolve closes those two properties over the module call graph and
// fills in the loops' pending call sinks.
type detMapIter struct{ pkgScope }

// NewDetMapIter builds the map-iteration-order rule scoped to the given
// package path suffixes (empty = all packages).
func NewDetMapIter(pkgs ...string) ModuleAnalyzer { return &detMapIter{pkgScope{pkgs}} }

func (*detMapIter) Name() string { return "det-map-iter" }
func (*detMapIter) Doc() string {
	return "flag map iteration whose body reaches an order-sensitive sink (append/schedule/float-accumulate/min-max/publish)"
}

// dmFunc is one function's contribution to the module effect graph.
type dmFunc struct {
	sched   bool // directly calls a scheduling primitive
	publish bool // directly sends/closes/launches/atomically writes
	callees map[string]bool
}

// dmCall is a loop-body call into a named function with loop-derived
// data, pending the callee's transitive effect in Resolve.
type dmCall struct {
	callee string
	short  string // display name
}

// dmLoop is one map-range loop with at least a potential finding.
type dmLoop struct {
	pos   token.Position
	expr  string   // the ranged expression, for the message
	sinks []string // locally classified sink descriptions
	calls []dmCall
}

// dmFacts is one package's facts.
type dmFacts struct {
	funcs map[string]*dmFunc
	loops []*dmLoop
}

func (a *detMapIter) Collect(pass *TypedPass) any {
	facts := &dmFacts{funcs: map[string]*dmFunc{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fn := &dmFunc{callees: map[string]bool{}}
			facts.funcs[obj.FullName()] = fn
			collectEffects(pass, fd.Body, fn)
			sorted := sortTargets(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := pass.Info.Types[rs.X].Type; t == nil || !isMap(t) {
					return true
				}
				if loop := classifyLoop(pass, rs, sorted); loop != nil {
					facts.loops = append(facts.loops, loop)
				}
				return true
			})
		}
	}
	if len(facts.funcs) == 0 && len(facts.loops) == 0 {
		return nil
	}
	return facts
}

// collectEffects records a function's named callees and whether its body
// directly schedules events or publishes across goroutines.
func collectEffects(pass *TypedPass, body ast.Node, fn *dmFunc) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt, *ast.GoStmt:
			fn.publish = true
		case *ast.CallExpr:
			if builtinName(pass, v) == "close" {
				fn.publish = true
				return true
			}
			callee := calleeFunc(pass, v)
			if callee == nil {
				return true
			}
			switch {
			case isSchedulerPrimitive(callee):
				fn.sched = true
			case isAtomicWrite(callee):
				fn.publish = true
			default:
				fn.callees[callee.Origin().FullName()] = true
			}
		}
		return true
	})
}

// classifyLoop inspects one map-range loop body and returns its pending
// finding, or nil when every effect is a recognised safe shape.
func classifyLoop(pass *TypedPass, rs *ast.RangeStmt, sorted map[string]bool) *dmLoop {
	deps := loopDeps(pass, rs)
	loop := &dmLoop{pos: pass.Fset.Position(rs.Pos()), expr: exprString(rs.X)}
	sink := func(format string, args ...any) {
		loop.sinks = append(loop.sinks, fmt.Sprintf(format, args...))
	}
	dep := func(exprs ...ast.Expr) bool {
		for _, e := range exprs {
			if e != nil && mentionsDeps(pass, e, deps) {
				return true
			}
		}
		return false
	}
	outer := func(e ast.Expr) bool {
		obj := rootObject(pass, e)
		return obj != nil && !(obj.Pos() >= rs.Pos() && obj.Pos() < rs.End())
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt:
			if dep(v.Chan, v.Value) {
				sink("channel send of loop-derived data")
			}
		case *ast.GoStmt:
			if dep(v.Call.Fun) || dep(v.Call.Args...) {
				sink("goroutine launched with loop-derived data")
			}
		case *ast.AssignStmt:
			classifyAssign(pass, v, rs, sorted, deps, sink, dep, outer)
		case *ast.CallExpr:
			classifyCall(pass, v, loop, sink, dep)
		}
		return true
	})
	if len(loop.sinks) == 0 && len(loop.calls) == 0 {
		return nil
	}
	return loop
}

// classifyAssign applies the reduction lattice to one assignment inside a
// map-range body.
func classifyAssign(pass *TypedPass, v *ast.AssignStmt, rs *ast.RangeStmt, sorted map[string]bool,
	deps map[types.Object]bool, sink func(string, ...any), dep func(...ast.Expr) bool, outer func(ast.Expr) bool) {
	if v.Tok == token.DEFINE {
		return // new loop-local variable: dependence only, handled by loopDeps
	}
	if len(v.Lhs) != len(v.Rhs) && len(v.Rhs) != 1 {
		return
	}
	for i, lhs := range v.Lhs {
		rhs := v.Rhs[0]
		if i < len(v.Rhs) {
			rhs = v.Rhs[i]
		}
		if !outer(lhs) {
			continue // confined to the loop body (or the loop element itself)
		}
		if !dep(rhs) && v.Tok == token.ASSIGN {
			continue // same value every iteration: order-free
		}
		lt := pass.Info.Types[lhs].Type
		switch v.Tok {
		case token.ASSIGN:
			if ix, ok := lhs.(*ast.IndexExpr); ok && dep(ix.Index) {
				// Indexed write keyed by loop-derived data (vec[k] = v,
				// m[k] = v): distinct keys land in distinct slots, so the
				// final state is order-free (non-injective derived keys
				// are a documented hole in the lattice). A loop-invariant
				// index falls through to the last-write-wins sink.
				continue
			}
			// x = append(x, v...) — the collect idiom.
			if call, ok := rhs.(*ast.CallExpr); ok && builtinName(pass, call) == "append" &&
				len(call.Args) > 0 && exprString(stripSlices(call.Args[0])) == exprString(lhs) {
				if !dep(call.Args[1:]...) {
					continue // identical elements: any order yields the same slice
				}
				if !sorted[exprString(lhs)] {
					sink("append of loop-derived values to %s (emitted without sort)", exprString(lhs))
				}
				continue
			}
			// x = min(x, v) / x = max(x, v).
			if call, ok := rhs.(*ast.CallExpr); ok {
				if b := builtinName(pass, call); b == "min" || b == "max" {
					sink("%s folded into %s (ties resolve in iteration order)", b, exprString(lhs))
					continue
				}
			}
			// x = x + v and friends: reduce like a compound assignment.
			if bin, ok := rhs.(*ast.BinaryExpr); ok &&
				(exprString(bin.X) == exprString(lhs) || exprString(bin.Y) == exprString(lhs)) {
				classifyReduction(lt, bin.Op, exprString(lhs), sink)
				continue
			}
			sink("order-dependent assignment to %s (last write in map order wins)", exprString(lhs))
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN,
			token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
			classifyReduction(lt, compoundOp(v.Tok), exprString(lhs), sink)
		}
	}
}

// classifyReduction decides whether folding values into an outer variable
// with the given operator is order-free.
func classifyReduction(lt types.Type, op token.Token, name string, sink func(string, ...any)) {
	if isFloat(lt) {
		sink("floating-point accumulation into %s (FP addition is not associative)", name)
		return
	}
	if isString(lt) {
		sink("string concatenation into %s in map order", name)
		return
	}
	switch op {
	case token.ADD, token.SUB, token.MUL, token.AND, token.OR, token.XOR, token.AND_NOT:
		return // exact commutative/associative reduction
	}
	sink("non-commutative reduction into %s (%s) in map order", name, op)
}

// compoundOp maps a compound-assignment token to its binary operator.
func compoundOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	case token.SHL_ASSIGN:
		return token.SHL
	case token.SHR_ASSIGN:
		return token.SHR
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT
	}
	return tok
}

// classifyCall checks one loop-body call: scheduling primitives, atomic
// writes, channel close and formatted output are direct sinks; any other
// named callee carrying loop-derived data is recorded for the transitive
// effect check in Resolve.
func classifyCall(pass *TypedPass, v *ast.CallExpr, loop *dmLoop, sink func(string, ...any), dep func(...ast.Expr) bool) {
	if tv, ok := pass.Info.Types[v.Fun]; ok && tv.IsType() {
		return // conversion
	}
	if b := builtinName(pass, v); b != "" {
		if b == "close" && dep(v.Args...) {
			sink("close of a loop-derived channel")
		}
		return // delete/len/cap/…: order-free; min/max handled at the assignment
	}
	callee := calleeFunc(pass, v)
	if callee == nil {
		return // dynamic call: out of the lattice
	}
	recv := receiverExpr(v)
	if !dep(v.Args...) && (recv == nil || !dep(recv)) {
		return // no loop-derived data: n identical effects are order-free
	}
	full := callee.Origin().FullName()
	switch {
	case isSchedulerPrimitive(callee):
		sink("event scheduling via %s (scheduling order assigns event sequence numbers)", shortFuncName(full))
	case isAtomicWrite(callee):
		sink("atomic write via %s publishes in map order", shortFuncName(full))
	case isFmtOutput(callee):
		sink("formatted output of loop-derived values via %s", shortFuncName(full))
	default:
		loop.calls = append(loop.calls, dmCall{callee: full, short: shortFuncName(full)})
	}
}

// loopDeps computes the loop-derived variable set: the key/value objects
// plus, to a fixpoint, every variable assigned from a loop-derived
// expression inside the body.
func loopDeps(pass *TypedPass, rs *ast.RangeStmt) map[types.Object]bool {
	deps := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			deps[obj] = true
		} else if obj := pass.Info.Uses[id]; obj != nil {
			deps[obj] = true
		}
	}
	for i := 0; i < 8; i++ { // fixpoint; depth 8 covers any sane chain
		grew := false
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				rhs := as.Rhs[0]
				if i < len(as.Rhs) {
					rhs = as.Rhs[i]
				}
				if !mentionsDeps(pass, rhs, deps) {
					continue
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var obj types.Object
				if obj = pass.Info.Defs[id]; obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj != nil && !deps[obj] {
					deps[obj] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			break
		}
	}
	return deps
}

// mentionsDeps reports whether an expression references any loop-derived
// variable.
func mentionsDeps(pass *TypedPass, e ast.Expr, deps map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		var obj types.Object
		if obj = pass.Info.Uses[id]; obj == nil {
			obj = pass.Info.Defs[id]
		}
		if obj != nil && deps[obj] {
			found = true
		}
		return !found
	})
	return found
}

// sortTargets collects the exprStrings passed to a sort call anywhere in
// the function, recognising the collect-keys-then-sort idiom.
func sortTargets(pass *TypedPass, body ast.Node) map[string]bool {
	targets := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch pkg, name := fn.Pkg().Path(), fn.Name(); {
		case pkg == "sort" && (name == "Slice" || name == "SliceStable" || name == "Sort" ||
			name == "Stable" || name == "Strings" || name == "Ints" || name == "Float64s"):
			targets[exprString(stripSlices(call.Args[0]))] = true
		case pkg == "slices" && strings.HasPrefix(name, "Sort"):
			targets[exprString(stripSlices(call.Args[0]))] = true
		}
		return true
	})
	return targets
}

// rootObject resolves an lvalue's base variable: the object of the
// innermost identifier after stripping selectors, indexing, dereferences
// and parens (sf.rate -> sf, r.tick[h] -> r).
func rootObject(pass *TypedPass, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.Ident:
			if obj := pass.Info.Uses[v]; obj != nil {
				return obj
			}
			return pass.Info.Defs[v]
		default:
			return nil
		}
	}
}

// receiverExpr returns the receiver of a method call expression, or nil.
func receiverExpr(v *ast.CallExpr) ast.Expr {
	if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// isSchedulerPrimitive recognises the event-scheduling seeds: the
// simulator engine's scheduling methods (by name — After/Schedule/
// schedule/after/Inject/InjectBroadcast on any in-module receiver) and
// the time package's timer constructors.
func isSchedulerPrimitive(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "time" {
		switch fn.Name() {
		case "After", "AfterFunc", "Tick", "NewTimer", "NewTicker":
			return true
		}
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "After", "after", "Schedule", "schedule", "Inject", "InjectBroadcast":
		return true
	}
	return false
}

// isAtomicWrite recognises sync/atomic mutation: package functions
// (StoreX/AddX/SwapX/CompareAndSwapX) and the write methods of the atomic
// value types.
func isAtomicWrite(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	name := fn.Name()
	for _, p := range []string{"Store", "Add", "Swap", "CompareAndSwap", "Or", "And"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// isFmtOutput recognises fmt's printing functions (Sprint* excluded: a
// formatted string is only order-sensitive once it reaches a sink, which
// the other checks cover).
func isFmtOutput(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint"))
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// Resolve closes the sched/publish properties over the module call graph
// and emits one finding per order-sensitive loop.
func (a *detMapIter) Resolve(facts []PackageFacts) []Diagnostic {
	funcs := map[string]*dmFunc{}
	var loops []*dmLoop
	for _, pf := range facts {
		f := pf.Facts.(*dmFacts)
		for k, fn := range f.funcs {
			funcs[k] = fn
		}
		loops = append(loops, f.loops...)
	}

	// Transitive closure: a function schedules/publishes if any callee
	// does. Plain fixpoint — the graph is module-sized.
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if fn.sched && fn.publish {
				continue
			}
			for c := range fn.callees {
				callee, ok := funcs[c]
				if !ok {
					continue
				}
				if callee.sched && !fn.sched {
					fn.sched = true
					changed = true
				}
				if callee.publish && !fn.publish {
					fn.publish = true
					changed = true
				}
			}
		}
	}

	var diags []Diagnostic
	for _, loop := range loops {
		msgs := append([]string(nil), loop.sinks...)
		for _, call := range loop.calls {
			fn, ok := funcs[call.callee]
			if !ok {
				continue // outside the module: out of the lattice
			}
			switch {
			case fn.sched:
				msgs = append(msgs, fmt.Sprintf("call to %s schedules events", call.short))
			case fn.publish:
				msgs = append(msgs, fmt.Sprintf("call to %s publishes across goroutines", call.short))
			}
		}
		if len(msgs) == 0 {
			continue
		}
		sort.Strings(msgs)
		msgs = dedupStrings(msgs)
		diags = append(diags, Diagnostic{
			Rule: a.Name(),
			Pos:  loop.pos,
			Message: fmt.Sprintf("map iteration over %s is order-sensitive: %s",
				loop.expr, strings.Join(msgs, "; ")),
		})
	}
	return diags
}

// dedupStrings removes adjacent duplicates from a sorted slice.
func dedupStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(pass *TypedPass, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := pass.Info.Uses[id].(*types.Builtin); ok {
		return id.Name
	}
	return ""
}

// calleeFunc resolves a call's target to a named function, or nil for
// dynamic calls (func values, field calls).
func calleeFunc(pass *TypedPass, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// stripSlices unwraps slice expressions: p.buf[:0] -> p.buf.
func stripSlices(e ast.Expr) ast.Expr {
	for {
		s, ok := e.(*ast.SliceExpr)
		if !ok {
			return e
		}
		e = s.X
	}
}

// isString reports a string-underlying type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// shortFuncName trims a FullName's package path to its last element,
// preserving any "(*" / "(" receiver prefix:
// "(*r2c2/internal/sim.Engine).Run" -> "(*sim.Engine).Run".
func shortFuncName(full string) string {
	i := strings.LastIndex(full, "/")
	if i < 0 {
		return full
	}
	j := 0
	for j < len(full) && (full[j] == '(' || full[j] == '*') {
		j++
	}
	return full[:j] + full[i+1:]
}
