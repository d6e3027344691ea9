package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// shardOwnership enforces the goroutine-ownership model the sharded
// engine (ROADMAP) depends on: a type annotated `//r2c2:shardowned` —
// the Engine, the Network, per-node state — belongs to the goroutine
// that created it, and its pointers must never become reachable from
// another goroutine except through a declared crossing point.
//
// Three leaks are flagged, module-wide:
//
//   - a `go` statement whose function literal captures, or whose call
//     receives, a shard-owned value: the new goroutine holds owned state
//     its shard still mutates;
//   - a channel send whose payload contains a shard-owned type: the
//     receiver is by construction another goroutine;
//   - a call passing a shard-owned pointer to a `//r2c2:boundary`
//     function — a function declared to execute on behalf of another
//     goroutine (an epoch-queue push, a cross-shard hand-off), which may
//     carry plain data but never ownership. A boundary function whose
//     own signature declares a pointer-to-owned parameter is flagged at
//     the declaration, callers or not.
//
// Ownership is structural to one level of containers: *T, []T, [N]T,
// map[_]T, chan T of an owned T all count as carrying owned state
// (an owned type buried inside another struct's field does not — that
// struct should itself be annotated). Collect records the annotations
// and the candidate sites; Resolve joins them across packages, so a type
// owned in internal/sim is protected in internal/experiments too.
type shardOwnership struct{ pkgScope }

// NewShardOwnership builds the ownership rule scoped to the given package
// path suffixes (empty = all packages).
func NewShardOwnership(pkgs ...string) ModuleAnalyzer { return &shardOwnership{pkgScope{pkgs}} }

func (*shardOwnership) Name() string { return "shard-ownership" }
func (*shardOwnership) Doc() string {
	return "flag //r2c2:shardowned state escaping its goroutine: go-statement captures, channel sends, leaks into //r2c2:boundary funcs"
}

// soSite is one candidate leak, resolved against the owned set in
// phase two.
type soSite struct {
	pos    token.Position
	kind   string   // "go-capture", "go-arg", "chan-send", "call-arg"
	types  []string // named-type full names carried by the site
	disp   []string // matching display strings, same order
	callee string   // "call-arg": callee FullName
}

// soFacts is one package's contribution.
type soFacts struct {
	owned    []string // full names of //r2c2:shardowned types
	boundary []string // full names of //r2c2:boundary funcs
	// boundaryParams: declared pointer-to-param types per boundary func,
	// checked against the owned set at Resolve.
	boundaryParams map[string][]soParam
	sites          []soSite
	misplaced      []Diagnostic
}

// soParam is one boundary-function parameter's named type.
type soParam struct {
	pos  token.Position
	name string // named-type full name (deref'd)
	disp string
}

func (a *shardOwnership) Collect(pass *TypedPass) any {
	facts := &soFacts{boundaryParams: map[string][]soParam{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				a.collectTypeDecl(pass, d, facts)
			case *ast.FuncDecl:
				a.collectFuncDecl(pass, d, facts)
			}
		}
	}
	if len(facts.owned) == 0 && len(facts.boundary) == 0 &&
		len(facts.sites) == 0 && len(facts.misplaced) == 0 {
		return nil
	}
	return facts
}

// collectTypeDecl records //r2c2:shardowned annotations on type specs and
// reports //r2c2:boundary misplaced onto types.
func (a *shardOwnership) collectTypeDecl(pass *TypedPass, d *ast.GenDecl, facts *soFacts) {
	if d.Tok != token.TYPE {
		if hasDirective(d.Doc, KindShardOwned) || hasDirective(d.Doc, KindBoundary) {
			facts.misplaced = append(facts.misplaced, pass.Diag(a.Name(), d,
				"//r2c2:%s on a %s declaration: it marks types and functions", directiveOn(d.Doc), d.Tok))
		}
		return
	}
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		doc := ts.Doc
		if doc == nil && len(d.Specs) == 1 {
			doc = d.Doc
		}
		if hasDirective(doc, KindBoundary) {
			facts.misplaced = append(facts.misplaced, pass.Diag(a.Name(), ts,
				"//r2c2:boundary on a type declaration: it marks functions"))
		}
		if !hasDirective(doc, KindShardOwned) {
			continue
		}
		if obj := pass.Info.Defs[ts.Name]; obj != nil {
			facts.owned = append(facts.owned, pass.Pkg.Path()+"."+obj.Name())
		}
	}
}

// collectFuncDecl records //r2c2:boundary annotations (and their
// pointer-param types), reports //r2c2:shardowned misplaced onto
// functions, and scans the body for candidate leak sites.
func (a *shardOwnership) collectFuncDecl(pass *TypedPass, fd *ast.FuncDecl, facts *soFacts) {
	if hasDirective(fd.Doc, KindShardOwned) {
		facts.misplaced = append(facts.misplaced, pass.Diag(a.Name(), fd,
			"//r2c2:shardowned on a function declaration: it marks types"))
	}
	obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	if hasDirective(fd.Doc, KindBoundary) {
		full := obj.FullName()
		facts.boundary = append(facts.boundary, full)
		sig := obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if pt, ok := p.Type().Underlying().(*types.Pointer); ok {
				if name, disp := namedOf(pt.Elem()); name != "" {
					facts.boundaryParams[full] = append(facts.boundaryParams[full],
						soParam{pos: pass.Fset.Position(p.Pos()), name: name, disp: "*" + disp})
				}
			}
		}
	}
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			a.collectGo(pass, v, facts)
		case *ast.SendStmt:
			if site := siteFor(pass, v.Value, "chan-send", ""); site != nil {
				site.pos = pass.Fset.Position(v.Pos())
				facts.sites = append(facts.sites, *site)
			}
		case *ast.CallExpr:
			a.collectCall(pass, v, facts)
		}
		return true
	})
}

// collectGo records owned state entering a `go` statement: captures of a
// function literal, the arguments, and a bound method receiver.
func (a *shardOwnership) collectGo(pass *TypedPass, g *ast.GoStmt, facts *soFacts) {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		for _, vr := range capturedVars(pass, lit) {
			if name, disp := namedOf(vr.Type()); name != "" {
				facts.sites = append(facts.sites, soSite{
					pos: pass.Fset.Position(g.Pos()), kind: "go-capture",
					types: []string{name}, disp: []string{disp + " (" + vr.Name() + ")"},
				})
			}
		}
	}
	args := append([]ast.Expr(nil), g.Call.Args...)
	if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok {
		args = append(args, sel.X)
	}
	for _, arg := range args {
		if site := siteFor(pass, arg, "go-arg", ""); site != nil {
			site.pos = pass.Fset.Position(g.Pos())
			facts.sites = append(facts.sites, *site)
		}
	}
}

// collectCall records named-call arguments (and method receivers) that
// carry named types — resolved against the boundary set in phase two.
func (a *shardOwnership) collectCall(pass *TypedPass, v *ast.CallExpr, facts *soFacts) {
	callee := calleeFunc(pass, v)
	if callee == nil {
		return
	}
	full := callee.Origin().FullName()
	exprs := append([]ast.Expr(nil), v.Args...)
	for _, arg := range exprs {
		if site := siteFor(pass, arg, "call-arg", full); site != nil {
			site.pos = pass.Fset.Position(v.Pos())
			facts.sites = append(facts.sites, *site)
		}
	}
}

// siteFor builds a candidate site when the expression's type carries a
// named type (one container level deep), else nil.
func siteFor(pass *TypedPass, e ast.Expr, kind, callee string) *soSite {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	names, disps := namedWithin(tv.Type)
	if len(names) == 0 {
		return nil
	}
	return &soSite{kind: kind, types: names, disp: disps, callee: callee}
}

// capturedVars lists the outer variables a function literal closes over.
func capturedVars(pass *TypedPass, lit *ast.FuncLit) []*types.Var {
	seen := map[*types.Var]bool{}
	var vars []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		vr, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || vr.IsField() || seen[vr] {
			return true
		}
		if vr.Pos() >= lit.Pos() && vr.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if vr.Parent() == nil || vr.Parent() == pass.Pkg.Scope() || vr.Parent() == types.Universe {
			return true // package-level: shared, not captured
		}
		seen[vr] = true
		vars = append(vars, vr)
		return true
	})
	return vars
}

// namedOf returns the full and display names of a named (possibly
// pointer-wrapped) type, or "".
func namedOf(t types.Type) (full, disp string) {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name(), shortTypeName(n)
}

// namedWithin collects the named types an expression's type carries, one
// container level deep: T, *T, []T, [N]T, map[_]T, chan T.
func namedWithin(t types.Type) (names, disps []string) {
	add := func(inner types.Type, prefix string) {
		if full, disp := namedOf(inner); full != "" {
			names = append(names, full)
			disps = append(disps, prefix+disp)
		}
	}
	switch t.(type) {
	case *types.Named, *types.Pointer:
		add(t, ptrPrefix(t))
		return names, disps
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		add(u.Elem(), "[]"+ptrPrefix(u.Elem()))
	case *types.Array:
		add(u.Elem(), "[...]"+ptrPrefix(u.Elem()))
	case *types.Map:
		add(u.Elem(), "map value "+ptrPrefix(u.Elem()))
	case *types.Chan:
		add(u.Elem(), "chan "+ptrPrefix(u.Elem()))
	}
	return names, disps
}

// ptrPrefix renders the "*" of a pointer type for display.
func ptrPrefix(t types.Type) string {
	if _, ok := t.(*types.Pointer); ok {
		return "*"
	}
	return ""
}

// shortTypeName renders a named type as pkg.Name with the package path
// trimmed to its last element.
func shortTypeName(n *types.Named) string {
	path := n.Obj().Pkg().Path()
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return path + "." + n.Obj().Name()
}

// directiveOn names the first //r2c2: directive in a doc group, for
// misplacement messages.
func directiveOn(doc *ast.CommentGroup) string {
	for _, kind := range []string{KindShardOwned, KindBoundary, KindHotpath} {
		if hasDirective(doc, kind) {
			return kind
		}
	}
	return "?"
}

// Resolve joins the module-wide owned and boundary sets and reports every
// site that leaks an owned type.
func (a *shardOwnership) Resolve(facts []PackageFacts) []Diagnostic {
	owned := map[string]bool{}
	boundary := map[string]bool{}
	var diags []Diagnostic
	var sites []soSite
	var params []struct {
		fn string
		p  soParam
	}
	for _, pf := range facts {
		f := pf.Facts.(*soFacts)
		for _, t := range f.owned {
			owned[t] = true
		}
		for _, b := range f.boundary {
			boundary[b] = true
		}
		for fn, ps := range f.boundaryParams {
			for _, p := range ps {
				params = append(params, struct {
					fn string
					p  soParam
				}{fn, p})
			}
		}
		sites = append(sites, f.sites...)
		diags = append(diags, f.misplaced...)
	}

	for _, bp := range params {
		if owned[bp.p.name] {
			diags = append(diags, Diagnostic{Rule: a.Name(), Pos: bp.p.pos,
				Message: fmt.Sprintf("boundary function %s declares shard-owned parameter %s: a boundary carries data, never ownership",
					shortFuncName(bp.fn), bp.p.disp)})
		}
	}

	for _, s := range sites {
		for i, tn := range s.types {
			if !owned[tn] {
				continue
			}
			var msg string
			switch s.kind {
			case "go-capture":
				msg = fmt.Sprintf("go statement captures shard-owned %s: owned state must stay on its owning goroutine", s.disp[i])
			case "go-arg":
				msg = fmt.Sprintf("go statement receives shard-owned %s: owned state must stay on its owning goroutine", s.disp[i])
			case "chan-send":
				msg = fmt.Sprintf("channel send of shard-owned %s: the receiver is another goroutine", s.disp[i])
			case "call-arg":
				if !boundary[s.callee] {
					continue
				}
				msg = fmt.Sprintf("shard-owned %s leaks across boundary function %s", s.disp[i], shortFuncName(s.callee))
			}
			diags = append(diags, Diagnostic{Rule: a.Name(), Pos: s.pos, Message: msg})
		}
	}
	return diags
}
