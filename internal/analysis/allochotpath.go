package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// allocHotpath enforces the allocation budget on the hot path. Functions
// annotated `//r2c2:hotpath` — and everything they reach through
// module-internal calls — must not contain allocating constructs: the
// ROADMAP's zero-alloc milestone (mbuf arenas, timer wheel) is only
// landable if the event loop, the packet pool and the emulator data path
// stay allocation-free between perf PRs, and a benchmark only notices a
// regression after it has shipped.
//
// The rule is deliberately an over-approximation of the compiler's escape
// analysis: `&T{}` that provably stays on the stack, a `make` with a
// constant bound, an interface conversion the inliner devirtualises — all
// still flagged. A construct the rule flags either gets rewritten or gets
// an explicit `//lint:ignore alloc-hotpath <why it is fine>`; what the
// running code actually allocates is measured by the testing.AllocsPerRun
// gates in internal/sim (DESIGN.md §11). What it will not do is silently
// drift.
//
// Collect gathers per-function facts (the annotation, allocation sites,
// named callees); Resolve walks the call graph from every annotated root
// and reports each reachable function's allocation sites once.
type allocHotpath struct{ pkgScope }

// NewAllocHotpath builds the hot-path allocation rule scoped to the given
// package path suffixes (empty = all packages).
func NewAllocHotpath(pkgs ...string) ModuleAnalyzer { return &allocHotpath{pkgScope{pkgs}} }

// HotpathDirective is the annotation marking a function as hot.
const HotpathDirective = "//r2c2:hotpath"

func (*allocHotpath) Name() string { return "alloc-hotpath" }
func (*allocHotpath) Doc() string {
	return "flag allocating constructs in //r2c2:hotpath functions and their transitive in-module callees"
}

// ahAlloc is one allocation site inside a function.
type ahAlloc struct {
	pos  token.Position
	what string
}

// ahFunc is one function's contribution to the module call graph.
type ahFunc struct {
	hot     bool
	pos     token.Position
	callees map[string]bool // types.Func.FullName of every named callee
	allocs  []ahAlloc
}

// ahFacts is one package's per-function facts, keyed by FullName.
type ahFacts struct {
	funcs map[string]*ahFunc
}

func (a *allocHotpath) Collect(pass *TypedPass) any {
	facts := &ahFacts{funcs: map[string]*ahFunc{}}
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
			fn := &ahFunc{
				hot:     isHotpath(fd),
				pos:     pass.Fset.Position(fd.Pos()),
				callees: map[string]bool{},
			}
			facts.funcs[obj.FullName()] = fn
			w := &ahWalker{pass: pass, fn: fn, decl: fd, okAppend: map[*ast.CallExpr]bool{}, panics: map[*ast.CallExpr]bool{}}
			w.walk(fd.Body)
		}
	}
	if len(facts.funcs) == 0 {
		return nil
	}
	return facts
}

// isHotpath reports whether a function's doc comment carries the
// //r2c2:hotpath directive (trailing explanation text allowed).
func isHotpath(fd *ast.FuncDecl) bool {
	return hasDirective(fd.Doc, KindHotpath)
}

// ahWalker inspects one function body, classifying allocation sites and
// recording callees. It keeps the ancestor stack (ast.Inspect's post-order
// nil callback pops) so it can exempt panic arguments, resolve the
// enclosing signature for return-statement boxing, and detect closure
// captures.
type ahWalker struct {
	pass     *TypedPass
	fn       *ahFunc
	decl     *ast.FuncDecl
	stack    []ast.Node
	okAppend map[*ast.CallExpr]bool // appends using the grow-in-place idiom
	panics   map[*ast.CallExpr]bool // panic(...) calls; their arguments are off-budget
}

func (w *ahWalker) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			w.stack = w.stack[:len(w.stack)-1]
			return false
		}
		w.stack = append(w.stack, n)
		w.visit(n)
		return true
	})
}

func (w *ahWalker) visit(n ast.Node) {
	switch v := n.(type) {
	case *ast.AssignStmt:
		w.assign(v)
	case *ast.ValueSpec:
		w.valueSpec(v)
	case *ast.ReturnStmt:
		w.returnStmt(v)
	case *ast.CallExpr:
		w.call(v)
	case *ast.CompositeLit:
		w.compositeLit(v)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if _, ok := v.X.(*ast.CompositeLit); ok {
				w.alloc(v, "&composite literal may escape to the heap")
			}
		}
	case *ast.BinaryExpr:
		if v.Op == token.ADD && isString(w.typeOf(v)) && !w.isConst(v) {
			w.alloc(v, "string concatenation allocates")
		}
	case *ast.FuncLit:
		if caps := w.captures(v); len(caps) > 0 {
			w.alloc(v, "closure capturing "+strings.Join(caps, ", ")+" may escape")
		}
	}
}

// alloc records an allocation site unless it sits inside a panic(...)
// argument — a panicking path is off-budget by definition.
func (w *ahWalker) alloc(n ast.Node, what string) {
	for _, anc := range w.stack {
		if call, ok := anc.(*ast.CallExpr); ok && w.panics[call] {
			return
		}
	}
	w.fn.allocs = append(w.fn.allocs, ahAlloc{pos: w.pass.Fset.Position(n.Pos()), what: what})
}

// assign marks grow-in-place appends (x = append(x, ...), including
// p.buf = append(p.buf[:0], ...)) as budget-free and checks each
// assignment for interface boxing.
func (w *ahWalker) assign(v *ast.AssignStmt) {
	if len(v.Lhs) != len(v.Rhs) {
		return
	}
	for i, rhs := range v.Rhs {
		if call, ok := rhs.(*ast.CallExpr); ok && w.isBuiltin(call, "append") && len(call.Args) > 0 {
			if exprString(v.Lhs[i]) == exprString(stripSlices(call.Args[0])) {
				w.okAppend[call] = true
			}
		}
		var dest types.Type
		if v.Tok == token.DEFINE {
			if id, ok := v.Lhs[i].(*ast.Ident); ok {
				if obj := w.pass.Info.Defs[id]; obj != nil {
					dest = obj.Type()
				}
			}
		} else if tv, ok := w.pass.Info.Types[v.Lhs[i]]; ok {
			dest = tv.Type
		}
		w.checkBox(dest, rhs, "assignment")
	}
}

func (w *ahWalker) valueSpec(v *ast.ValueSpec) {
	for i, val := range v.Values {
		if i < len(v.Names) {
			if obj := w.pass.Info.Defs[v.Names[i]]; obj != nil {
				w.checkBox(obj.Type(), val, "assignment")
			}
		}
	}
}

// returnStmt checks each returned expression against the enclosing
// function's (or innermost closure's) result types for interface boxing.
func (w *ahWalker) returnStmt(v *ast.ReturnStmt) {
	sig := w.enclosingSig()
	if sig == nil || sig.Results().Len() != len(v.Results) {
		return
	}
	for i, res := range v.Results {
		w.checkBox(sig.Results().At(i).Type(), res, "return")
	}
}

// enclosingSig finds the signature governing a return statement: the
// innermost FuncLit on the ancestor stack, else the declared function.
func (w *ahWalker) enclosingSig() *types.Signature {
	for i := len(w.stack) - 1; i >= 0; i-- {
		if lit, ok := w.stack[i].(*ast.FuncLit); ok {
			if tv, ok := w.pass.Info.Types[lit]; ok {
				if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
					return sig
				}
			}
			return nil
		}
	}
	if obj, ok := w.pass.Info.Defs[w.decl.Name].(*types.Func); ok {
		return obj.Type().(*types.Signature)
	}
	return nil
}

func (w *ahWalker) call(v *ast.CallExpr) {
	if tv, ok := w.pass.Info.Types[v.Fun]; ok && tv.IsType() {
		w.conversion(v, tv.Type)
		return
	}
	if id := builtinName(w.pass, v); id != "" {
		switch id {
		case "make":
			w.alloc(v, "make allocates")
		case "new":
			w.alloc(v, "new allocates")
		case "append":
			if !w.okAppend[v] && !w.returnsCallerBuffer(v) {
				w.alloc(v, "append may grow its backing array")
			}
		case "panic":
			w.panics[v] = true
		}
		return
	}
	callee := calleeFunc(w.pass, v)
	if callee != nil && callee.Pkg() != nil {
		full := callee.Origin().FullName()
		if allocatorCall(callee) {
			w.alloc(v, "call to "+full+" allocates")
		} else {
			w.fn.callees[full] = true
			w.callBoxing(v)
		}
		return
	}
	w.callBoxing(v)
}

// returnsCallerBuffer recognises `return append(buf, ...)` where buf is a
// parameter of the enclosing function: the AppendPath-style idiom where
// the caller owns the buffer and growth amortises across calls.
func (w *ahWalker) returnsCallerBuffer(v *ast.CallExpr) bool {
	if len(w.stack) < 2 {
		return false
	}
	if _, ok := w.stack[len(w.stack)-2].(*ast.ReturnStmt); !ok {
		return false
	}
	if len(v.Args) == 0 {
		return false
	}
	id, ok := stripSlices(v.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	vr, ok := w.pass.Info.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	sig := w.enclosingSig()
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == vr {
			return true
		}
	}
	return false
}

// conversion flags the allocating type conversions: string <-> []byte /
// []rune in either direction.
func (w *ahWalker) conversion(v *ast.CallExpr, target types.Type) {
	if len(v.Args) != 1 {
		return
	}
	src := w.typeOf(v.Args[0])
	if src == nil || w.isConst(v.Args[0]) {
		return
	}
	switch {
	case isString(target) && isByteOrRuneSlice(src),
		isByteOrRuneSlice(target) && isString(src):
		w.alloc(v, "conversion between string and []byte/[]rune allocates")
	}
}

// callBoxing checks a call's arguments against its signature's parameter
// types for interface boxing, handling variadics.
func (w *ahWalker) callBoxing(v *ast.CallExpr) {
	tv, ok := w.pass.Info.Types[v.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range v.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if v.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		w.checkBox(pt, arg, "argument")
	}
}

// checkBox reports interface boxing: a concrete, non-pointer-shaped,
// non-constant value converted to an interface type allocates.
func (w *ahWalker) checkBox(dest types.Type, src ast.Expr, where string) {
	if dest == nil || !types.IsInterface(dest) {
		return
	}
	st := w.typeOf(src)
	if st == nil || types.IsInterface(st) || pointerShaped(st) || w.isConst(src) {
		return
	}
	if b, ok := st.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return // untyped nil
	}
	w.alloc(src, "interface boxing of "+st.String()+" at "+where)
}

// captures lists the outer variables a function literal closes over.
func (w *ahWalker) captures(lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		vr, ok := w.pass.Info.Uses[id].(*types.Var)
		if !ok || vr.IsField() || seen[vr.Name()] {
			return true
		}
		// A capture is a variable declared outside the literal but inside
		// some function (package-level variables are not captured).
		if vr.Pos() >= lit.Pos() && vr.Pos() < lit.End() {
			return true
		}
		if vr.Parent() == nil || vr.Parent() == w.pass.Pkg.Scope() || vr.Parent() == types.Universe {
			return true
		}
		seen[vr.Name()] = true
		names = append(names, vr.Name())
		return true
	})
	sort.Strings(names)
	return names
}

func (w *ahWalker) compositeLit(v *ast.CompositeLit) {
	t := w.typeOf(v)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		w.alloc(v, "slice literal allocates")
	case *types.Map:
		w.alloc(v, "map literal allocates")
	}
}

func (w *ahWalker) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.pass.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isConst reports whether an expression is a compile-time constant; the
// compiler materialises those without a runtime allocation (small-int
// interface boxing uses the static staticuint64s table, constant strings
// live in rodata).
func (w *ahWalker) isConst(e ast.Expr) bool {
	tv, ok := w.pass.Info.Types[e]
	return ok && tv.Value != nil
}

func (w *ahWalker) isBuiltin(call *ast.CallExpr, name string) bool {
	return builtinName(w.pass, call) == name
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

// allocFuncs are stdlib calls known to allocate on every invocation (any
// function in package fmt is treated the same, wholesale).
var allocFuncs = map[string]bool{
	"errors.New":          true,
	"time.After":          true,
	"time.Tick":           true,
	"time.NewTimer":       true,
	"time.NewTicker":      true,
	"sort.Slice":          true,
	"sort.SliceStable":    true,
	"strings.Join":        true,
	"strings.Repeat":      true,
	"strings.Split":       true,
	"strconv.Itoa":        true,
	"strconv.FormatInt":   true,
	"strconv.FormatFloat": true,
	"strconv.Quote":       true,
}

func allocatorCall(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" {
		return true
	}
	return allocFuncs[fn.Origin().FullName()]
}

// isString reports a string-underlying type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteOrRuneSlice reports []byte / []rune underlying types.
func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports types whose interface conversion stores the value
// directly in the data word — no allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// Resolve walks the call graph from every //r2c2:hotpath root and reports
// each reachable function's allocation sites once, naming the root that
// pulled an unannotated function onto the hot path.
func (a *allocHotpath) Resolve(facts []PackageFacts) []Diagnostic {
	funcs := map[string]*ahFunc{}
	for _, pf := range facts {
		for k, f := range pf.Facts.(*ahFacts).funcs {
			funcs[k] = f
		}
	}

	var roots []string
	for k, f := range funcs {
		if f.hot {
			roots = append(roots, k)
		}
	}
	sort.Strings(roots)

	// BFS from the sorted roots; the first root to reach a function is
	// the one named in its findings (deterministic by the sort).
	via := map[string]string{}
	order := []string{}
	for _, root := range roots {
		if _, ok := via[root]; ok {
			continue
		}
		queue := []string{root}
		via[root] = root
		order = append(order, root)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			callees := make([]string, 0, len(funcs[cur].callees))
			for c := range funcs[cur].callees {
				callees = append(callees, c)
			}
			sort.Strings(callees)
			for _, c := range callees {
				if _, ok := funcs[c]; !ok {
					continue // outside the module (or no body)
				}
				if _, ok := via[c]; ok {
					continue
				}
				via[c] = root
				order = append(order, c)
				queue = append(queue, c)
			}
		}
	}

	var diags []Diagnostic
	for _, name := range order {
		fn := funcs[name]
		for _, al := range fn.allocs {
			msg := al.what + " in hot-path function " + shortFuncName(name)
			if !fn.hot {
				msg += " (reached from " + HotpathDirective + " root " + shortFuncName(via[name]) + ")"
			}
			diags = append(diags, Diagnostic{Rule: a.Name(), Pos: al.pos, Message: msg})
		}
	}
	return diags
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
