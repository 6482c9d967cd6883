// Package bufescape flags zero-copy HBuffer views that escape the
// scope guaranteeing the buffer is live.
//
// HBuffer.Bytes() returns a slice aliasing the buffer's backing array
// — the whole point of the zero-copy transfer path. The contract is
// that such a view is transient: read or written
// in place, then dropped before the buffer's Free (whose exactly-once
// discipline poolsafe enforces). A view stored into a struct field, a
// global, a long-lived slice, or a channel — or captured by a closure
// that may run later — silently becomes a dangling window once the
// pool reuses the pages, the classic use-after-free that Go's GC hides
// until the data is *wrong* rather than crashing.
//
// The analysis tracks each view (and every local alias or re-slice of
// it) through the function: returning it, storing it anywhere that
// outlives the frame, sending it on a channel, or capturing it in a
// function literal is an escape. Passing a view to another function is
// an escape only if that function retains its argument; retention is
// computed per parameter as a fixpoint over the package call graph and
// exported as a Retains object fact, so a helper in membuf or core
// that caches its []byte argument is visible from flink. Element reads
// (v[i]), copy/len/cap, and append(dst, v...) (which copies elements)
// are not escapes. Unknown callees (function values, interface
// methods, stdlib) are assumed non-retaining — the direct-call
// discipline the simulator uses keeps that optimistic default honest.
//
// Intentional retention — e.g. a test harness that owns the buffer for
// the process's whole lifetime — is annotated //gflink:retains-bytes
// with a justification.
package bufescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"gflink/internal/analysis"
)

// Retains is an object fact: Params[i] reports whether the function
// retains its i'th parameter (stores it somewhere outliving the call).
type Retains struct {
	Params []bool
}

// AFact marks Retains as a fact type.
func (*Retains) AFact() {}

const membufPath = "gflink/internal/membuf"

// Analyzer implements the bufescape check.
var Analyzer = &analysis.Analyzer{
	Name:      "bufescape",
	Doc:       "flag HBuffer.Bytes() views escaping their owning scope (returned, stored, sent, captured, or passed to a retaining function); suppress with //gflink:retains-bytes",
	Run:       run,
	FactTypes: []analysis.Fact{(*Retains)(nil)},
}

func run(pass *analysis.Pass) (interface{}, error) {
	decls := analysis.FuncDecls(pass)

	// Per-parameter retention, to fixpoint: a later-declared helper's
	// retention must be visible when an earlier function passes its
	// parameter along.
	local := make(map[*types.Func][]bool)
	params := make(map[*types.Func][]*types.Var)
	for _, fi := range decls {
		sig := fi.Obj.Type().(*types.Signature)
		ps := make([]*types.Var, sig.Params().Len())
		for i := range ps {
			ps[i] = sig.Params().At(i)
		}
		params[fi.Obj] = ps
		local[fi.Obj] = make([]bool, len(ps))
	}
	retainsOf := func(fn *types.Func) []bool {
		if r, ok := local[fn]; ok {
			return r
		}
		var fact Retains
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Params
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range decls {
			for i, p := range params[fi.Obj] {
				if local[fi.Obj][i] || !isSlice(p.Type()) {
					continue
				}
				esc := trackEscapes(pass, fi.Decl.Body, p, false, retainsOf, false)
				if len(esc) > 0 {
					local[fi.Obj][i] = true
					changed = true
				}
			}
		}
	}
	for _, fi := range decls {
		if anyTrue(local[fi.Obj]) {
			pass.ExportObjectFact(fi.Obj, &Retains{Params: local[fi.Obj]})
		}
	}

	// Diagnose escaping views. Each function literal is scanned as its
	// own scope too: the escape walk stops at literal boundaries (a view
	// captured from outside is one escape, reported at the literal), so
	// views *bound inside* a literal need their own pass.
	for _, f := range pass.Files {
		idx := analysis.DirectiveIndex(pass.Fset, f)
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					bodies = append(bodies, n.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, n.Body)
			}
			return true
		})
		for _, body := range bodies {
			for _, esc := range trackEscapes(pass, body, nil, true, retainsOf, true) {
				if analysis.DirectiveAt(idx, pass.Fset, "retains-bytes", esc.pos) {
					continue
				}
				pass.Reportf(esc.pos, "zero-copy HBuffer view escapes: %s; the slice aliases pooled pages that are recycled on Free — copy the bytes, or annotate //gflink:retains-bytes with why the buffer outlives this reference", esc.kind)
			}
		}
	}
	return nil, nil
}

// escape is one site where a tracked slice value outlives the frame.
type escape struct {
	pos  token.Pos
	kind string
}

// trackEscapes scans body for escapes of tracked slice values. When
// seed is non-nil the tracked value is that parameter; when viewCalls
// is set, every HBuffer.Bytes() call is a tracked value. Local
// aliases (x := v, x := v[a:b]) are tracked transitively. includeReturn
// controls whether returning the value counts (it does for views; a
// function returning its own parameter is the transient-view idiom and
// the caller's problem).
func trackEscapes(pass *analysis.Pass, body *ast.BlockStmt, seed *types.Var, viewCalls bool, retainsOf func(*types.Func) []bool, includeReturn bool) []escape {
	tracked := make(map[types.Object]bool)
	if seed != nil {
		tracked[seed] = true
	}

	// transmits reports whether evaluating e yields a tracked slice (or
	// an alias of one): the identifier itself, a re-slice, a slice
	// conversion, &v[i], a composite literal carrying one, or (for the
	// view analysis) a Bytes() call.
	var transmits func(e ast.Expr) bool
	transmits = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return tracked[pass.TypesInfo.Uses[e]]
		case *ast.SliceExpr:
			return transmits(e.X)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if ix, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok {
					return transmits(ix.X) // &v[i] points into the buffer
				}
				return transmits(e.X) // &T{...: v}, &v
			}
			return false
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if transmits(el) {
					return true
				}
			}
			return false
		case *ast.CallExpr:
			if viewCalls && isViewCall(pass, e) {
				return true
			}
			// Slice-to-slice conversion aliases; string(v) etc. copy.
			if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
				if rtv, ok := pass.TypesInfo.Types[e]; ok && isSlice(rtv.Type) {
					return transmits(e.Args[0])
				}
			}
			return false
		}
		return false
	}

	// Grow the tracked set through local aliases until stable.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			lhss, rhss := assignPairs(n)
			for i := range lhss {
				if !transmits(rhss[i]) {
					continue
				}
				id, ok := ast.Unparen(lhss[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil && !isGlobal(obj) && !tracked[obj] {
					tracked[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	var out []escape
	add := func(pos token.Pos, kind string) {
		out = append(out, escape{pos: pos, kind: kind})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A tracked value used inside a literal is captured; the
			// closure may run after Free (clock.Go worker, deferred hook).
			captured := false
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && tracked[pass.TypesInfo.Uses[id]] {
					captured = true
				}
				return !captured
			})
			if captured {
				add(n.Pos(), "captured by a function literal that may outlive the buffer")
			}
			return false
		case *ast.SendStmt:
			if transmits(n.Value) {
				add(n.Pos(), "sent on a channel")
			}
		case *ast.ReturnStmt:
			if includeReturn {
				for _, res := range n.Results {
					if transmits(res) {
						add(n.Pos(), "returned to the caller")
						break
					}
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n, transmits, retainsOf, add)
		default:
			lhss, rhss := assignPairs(n)
			for i := range lhss {
				if !transmits(rhss[i]) {
					continue
				}
				if kind, escapes := lvalueKind(pass, lhss[i]); escapes {
					add(rhss[i].Pos(), "stored in "+kind)
				}
			}
		}
		return true
	})

	// Deduplicate per position, in source order.
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	dedup := out[:0]
	var last token.Pos = -1
	for _, e := range out {
		if e.pos != last {
			dedup = append(dedup, e)
			last = e.pos
		}
	}
	return dedup
}

// checkCall classifies a call's use of tracked values: appends that
// alias (not element-copy), and arguments to retaining parameters.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, transmits func(ast.Expr) bool, retainsOf func(*types.Func) []bool, add func(token.Pos, string)) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				for i, a := range call.Args[1:] {
					if call.Ellipsis.IsValid() && 1+i == len(call.Args)-1 {
						continue // append(dst, v...) copies elements
					}
					if transmits(a) {
						add(a.Pos(), "appended to a slice")
					}
				}
			}
			return // copy, len, cap, ... never retain
		}
	}
	callee := analysis.StaticCallee(pass.TypesInfo, call)
	if callee == nil {
		return
	}
	ret := retainsOf(callee)
	if len(ret) == 0 {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, a := range call.Args {
		if !transmits(a) {
			continue
		}
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len()-1 {
			pi = sig.Params().Len() - 1
		}
		if pi < len(ret) && ret[pi] {
			add(a.Pos(), "passed to "+callee.Name()+", which retains that argument")
		}
	}
}

// assignPairs flattens an assignment-like node into (lhs, rhs) pairs.
func assignPairs(n ast.Node) (lhs, rhs []ast.Expr) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			return n.Lhs, n.Rhs
		}
	case *ast.ValueSpec:
		if len(n.Names) == len(n.Values) {
			lhs = make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				lhs[i] = id
			}
			return lhs, n.Values
		}
	}
	return nil, nil
}

// lvalueKind classifies an assignment target that receives a tracked
// value: anything other than a local variable outlives the frame.
func lvalueKind(pass *analysis.Pass, lhs ast.Expr) (string, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Defs[lhs]
		if obj == nil {
			obj = pass.TypesInfo.Uses[lhs]
		}
		if obj != nil && isGlobal(obj) {
			return "the global variable " + obj.Name(), true
		}
		return "", false // local alias, tracked instead
	case *ast.SelectorExpr:
		return "a struct field", true
	case *ast.IndexExpr:
		return "a slice or map element", true
	case *ast.StarExpr:
		return "a dereferenced pointer", true
	}
	return "", false
}

// isViewCall reports whether call is HBuffer.Bytes().
func isViewCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.StaticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != membufPath {
		return false
	}
	key := analysis.ObjectKey(fn)
	return key == "HBuffer.Bytes"
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func isGlobal(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}
