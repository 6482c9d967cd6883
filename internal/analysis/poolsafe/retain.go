package poolsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"gflink/internal/analysis"
)

// Retains is an object fact: Params[i] reports whether the function
// retains its i'th parameter (stores it somewhere outliving the call).
type Retains struct {
	Params []bool
}

// AFact marks Retains as a fact type.
func (*Retains) AFact() {}

// solveRetention computes Retains for every reference-typed parameter
// of the package's declared functions, to fixpoint: a later-declared
// helper's retention must be visible when an earlier function passes
// its parameter along. Functions retaining anything export the fact.
func (c *checker) solveRetention(scopes []*analysis.FuncScope) {
	for _, sc := range scopes {
		if sc.Obj != nil {
			c.local[sc.Obj] = make([]bool, sc.Sig.Params().Len())
		}
	}
	for changed := true; changed; {
		changed = false
		for _, sc := range scopes {
			if sc.Obj == nil {
				continue
			}
			ret := c.local[sc.Obj]
			for i := range ret {
				p := sc.Sig.Params().At(i)
				if !ret[i] && holdsRef(p.Type()) && len(c.escapes(sc, p)) > 0 {
					ret[i], changed = true, true
				}
			}
		}
	}
	for _, sc := range scopes {
		if sc.Obj != nil && slices.Contains(c.local[sc.Obj], true) {
			c.pass.ExportObjectFact(sc.Obj, &Retains{Params: c.local[sc.Obj]})
		}
	}
}

// handoffs are the simulator's submission points, keyed by package
// path and ObjectKey. Each passes its argument to a consumer that the
// caller then waits on (the submitted work's Wait, a stream callback's
// event), and the reference ends at that wait, which this analysis
// cannot see. So they are non-retaining by name, as membuf's methods
// are recognized by name.
var handoffs = map[string]bool{
	"gflink/internal/vclock.Queue.Put":          true,
	"gflink/internal/vclock.Ring.Push":          true,
	"gflink/internal/gpu.Stream.H2DAsync":       true,
	"gflink/internal/gpu.Stream.H2DRangesAsync": true,
	"gflink/internal/gpu.Stream.D2HAsync":       true,
}

// retains reports whether fn keeps a reference to its i'th argument:
// never for a handoff, else the package's own fixpoint for same-package
// callees and the imported Retains fact for the rest.
func (c *checker) retains(fn *types.Func, i int) bool {
	if fn.Pkg() != nil && handoffs[fn.Pkg().Path()+"."+analysis.ObjectKey(fn)] {
		return false
	}
	ps, ok := c.local[fn]
	if !ok {
		var fact Retains
		if c.pass.ImportObjectFact(fn, &fact) {
			ps = fact.Params
		}
	}
	if sig := analysis.SigOf(fn); sig != nil && sig.Variadic() && i >= len(ps)-1 {
		i = len(ps) - 1
	}
	return i >= 0 && i < len(ps) && ps[i]
}

// checkViews reports the HBuffer.Bytes() views escaping one function
// body. The escape walk stops at literal boundaries (a view captured
// from outside is one escape, reported at the literal), and every
// literal is a scope of its own, so views bound inside one are checked
// there, where storing one into a captured variable escapes.
func (c *checker) checkViews(sc *analysis.FuncScope) {
	for _, esc := range c.escapes(sc, nil) {
		if analysis.DirectiveAt(sc.Idx, c.pass.Fset, "retains-bytes", esc.pos) {
			continue
		}
		c.pass.Reportf(esc.pos, "zero-copy HBuffer view escapes: %s; the slice aliases pooled pages that are recycled on Free — copy the bytes, or annotate //gflink:retains-bytes with why the buffer outlives this reference", esc.kind)
	}
}

// escape is one site where a tracked value outlives the frame.
type escape struct {
	pos  token.Pos
	kind string
}

// escapes scans the body of sc for escapes of tracked values. With a
// non-nil seed the tracked value is that parameter; with a nil seed
// every HBuffer.Bytes() call is one, and returning it counts too (a
// function returning its own parameter is the transient-view idiom and
// the caller's problem). Local aliases (x := v, x := v[a:b]) are
// tracked transitively, but not inside function literals, which are
// scopes of their own.
func (c *checker) escapes(sc *analysis.FuncScope, seed *types.Var) []escape {
	info, body := c.pass.TypesInfo, sc.Body
	views := seed == nil
	tracked := make(map[types.Object]bool)
	if seed != nil {
		tracked[seed] = true
	}

	// transmits reports whether evaluating e yields a tracked value (or
	// an alias of one): the identifier itself, a re-slice, a conversion
	// to a reference type, &v[i], a composite literal carrying one, or
	// (for views) a Bytes() call.
	var transmits func(e ast.Expr) bool
	transmits = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return tracked[info.Uses[e]]
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
			if views && membufKey(staticOrigin(info, e)) == "HBuffer.Bytes" {
				return true
			}
			// A conversion to a reference type aliases; string(v) copies.
			if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 && holdsRef(tv.Type) {
				return transmits(e.Args[0])
			}
			return false
		}
		return false
	}

	// Grow the tracked set through local aliases until stable.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			if _, lit := n.(*ast.FuncLit); lit {
				return false
			}
			lhss, rhss := assignPairs(n)
			for i := range lhss {
				if !transmits(rhss[i]) {
					continue
				}
				if obj := holder(info, lhss[i]); obj != nil && !tracked[obj] {
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
				if id, ok := m.(*ast.Ident); ok && tracked[info.Uses[id]] {
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
			if views && slices.ContainsFunc(n.Results, transmits) {
				add(n.Pos(), "returned to the caller")
			}
		case *ast.CallExpr:
			c.checkCall(n, transmits, add)
		default:
			lhss, rhss := assignPairs(n)
			for i := range lhss {
				if !transmits(rhss[i]) {
					continue
				}
				if kind, escapes := lvalueKind(info, sc, lhss[i]); escapes {
					add(rhss[i].Pos(), "stored in "+kind)
				}
			}
		}
		return true
	})

	// Deduplicate per position, in source order.
	slices.SortStableFunc(out, func(a, b escape) int { return int(a.pos - b.pos) })
	return slices.CompactFunc(out, func(a, b escape) bool { return a.pos == b.pos })
}

// checkCall classifies a call's use of tracked values: appends that
// alias (not element-copy), and arguments to retaining parameters.
func (c *checker) checkCall(call *ast.CallExpr, transmits func(ast.Expr) bool, add func(token.Pos, string)) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
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
	callee := staticOrigin(c.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	for i, a := range call.Args {
		if transmits(a) && c.retains(callee, i) {
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

// holder returns the local variable an assignment to lhs stores into,
// which then carries the value as an alias; nil for any other target.
func holder(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil || isGlobal(obj) {
		return nil
	}
	return obj
}

// lvalueKind classifies an assignment target of sc that receives a
// tracked value: anything but a variable of sc itself outlives the
// frame, a variable a literal captures from its enclosing function
// included.
func lvalueKind(info *types.Info, sc *analysis.FuncScope, lhs ast.Expr) (string, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := info.Uses[lhs]
		switch {
		case obj == nil:
		case isGlobal(obj):
			return "the global variable " + obj.Name(), true
		case (obj.Pos() < sc.Body.Pos() || obj.Pos() >= sc.Body.End()) && !inSignature(sc.Sig, obj):
			return "the captured variable " + obj.Name(), true
		}
	case *ast.SelectorExpr:
		return "a struct field", true
	case *ast.IndexExpr:
		return "a slice or map element", true
	case *ast.StarExpr:
		return "a dereferenced pointer", true
	}
	return "", false
}

// holdsRef reports whether a value of type t can hold a reference: a
// pointer, slice, map, chan, func or interface, or a type parameter
// (its constraint is an interface).
func holdsRef(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// inSignature reports whether obj is the receiver, a parameter or a
// result of sig: declared outside the body, yet a variable of its own.
func inSignature(sig *types.Signature, obj types.Object) bool {
	if sig.Recv() == obj {
		return true
	}
	for _, vars := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < vars.Len(); i++ {
			if vars.At(i) == obj {
				return true
			}
		}
	}
	return false
}

func isGlobal(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
