package analysis

// This file holds what the CFG analyzers (poolsafe, clockflow) share
// on top of cfg.go: one builder that turns a package
// into function scopes, one forward may-solver over bit vectors, one
// collector for locals defined by a matching call, the nil-ness a
// branch proves, and the small AST helpers they would otherwise each
// carry.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// A FuncScope is one function body — a declared function or a function
// literal — with the flow-sensitive views built over it.
type FuncScope struct {
	// Decl is the declaration, nil for a literal.
	Decl *ast.FuncDecl
	// Obj is the declared function, nil for a literal.
	Obj  *types.Func
	Sig  *types.Signature
	Body *ast.BlockStmt
	CFG  *CFG
	RD   *ReachingDefs
	// Idx is the directive index of the enclosing file.
	Idx map[string]map[int]bool
}

// FuncScopes builds a scope for every function body in the pass: per
// file, the declared functions in source order, then every function
// literal (nested ones included) in source order. A literal is a scope
// of its own; its enclosing scope's walks must not descend into it.
func FuncScopes(pass *Pass) []*FuncScope {
	info := pass.TypesInfo
	var scopes []*FuncScope
	for _, f := range pass.Files {
		idx := DirectiveIndex(pass.Fset, f)
		add := func(sc *FuncScope, recv *ast.FieldList, ftype *ast.FuncType) {
			sc.CFG = BuildCFG(info, sc.Body)
			sc.RD = NewReachingDefs(info, sc.CFG, recv, ftype)
			sc.Idx = idx
			scopes = append(scopes, sc)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			add(&FuncScope{Decl: fd, Obj: obj, Sig: SigOf(obj), Body: fd.Body}, fd.Recv, fd.Type)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				sig, _ := info.Types[lit].Type.(*types.Signature)
				add(&FuncScope{Sig: sig, Body: lit.Body}, nil, lit.Type)
			}
			return true
		})
	}
	return scopes
}

// SolveMay solves a forward may-problem over n bits on cfg: a bit holds
// at a block's entry when it holds at the exit of any predecessor, and
// no bit holds at the function entry. step applies one block's nodes to
// a private copy of its entry bits. SolveMay returns every block's
// entry bits.
func SolveMay(cfg *CFG, n int, step func(blk *Block, bits []bool)) map[*Block][]bool {
	in, _ := Solve(cfg, FlowProblem[[]bool]{
		Dir:      Forward,
		Boundary: make([]bool, n),
		Init:     func() []bool { return make([]bool, n) },
		Meet: func(a, b []bool) []bool {
			m := make([]bool, len(a))
			for i := range a {
				m[i] = a[i] || b[i]
			}
			return m
		},
		Transfer: func(blk *Block, in []bool) []bool {
			bits := slices.Clone(in)
			step(blk, bits)
			return bits
		},
		Equal: slices.Equal[[]bool],
	})
	return in
}

// CallDefs reports each definition node n makes of a tracked local
// whose value is a call that match accepts: x := f(), or x = f() in a
// plain or parallel assignment.
func (r *ReachingDefs) CallDefs(n ast.Node, match func(*ast.CallExpr) bool, fn func(*Def, *ast.CallExpr)) {
	assign, ok := n.(*ast.AssignStmt)
	if !ok || (assign.Tok != token.ASSIGN && assign.Tok != token.DEFINE) {
		return
	}
	for i, l := range assign.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || i >= len(assign.Rhs) {
			continue
		}
		call, ok := ast.Unparen(assign.Rhs[i]).(*ast.CallExpr)
		if !ok || !match(call) {
			continue
		}
		v := DefVar(r.info, id)
		if v == nil || !r.Tracked(v) {
			continue
		}
		for _, d := range r.byVar[v] {
			if d.Node == n && d.RHS != nil && ast.Unparen(d.RHS) == call {
				fn(d, call)
			}
		}
	}
}

// DefVar resolves an identifier on the left of a definition to its
// variable (Defs for :=, Uses for =); nil for the blank identifier and
// non-variables.
func DefVar(info *types.Info, id *ast.Ident) *types.Var {
	if id.Name == "_" {
		return nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// SigOf returns fn's signature, or nil for a nil fn.
func SigOf(fn *types.Func) *types.Signature {
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig
}

// Header is the part of a block node that runs in its block: a range
// statement's body is other blocks, so only its range expression is.
func Header(n ast.Node) ast.Node {
	if rs, ok := n.(*ast.RangeStmt); ok {
		return rs.X
	}
	return n
}

// ForEachCall visits every call expression in n, skipping nested
// function literals (they are scopes of their own).
func ForEachCall(n ast.Node, fn func(*ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
}

// NilComparisonIdents collects the identifiers compared against nil
// (x == nil, nil != x) within n.
func NilComparisonIdents(n ast.Node) map[*ast.Ident]bool {
	out := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok {
			if id := nilOperand(be); id != nil {
				out[id] = true
			}
		}
		return true
	})
	return out
}

// NonNilOnEntry names the identifier known to be non-nil on entry to
// blk: blk is the then-branch of if x != nil (or nil != x), or the
// else-branch of if x == nil, and the if's head is its only
// predecessor. It reads the builder's Succs order (an if's head leads
// to its then-block first); a compound condition, a switch or a loop
// condition names nothing.
func NonNilOnEntry(blk *Block) *ast.Ident {
	if len(blk.Preds) != 1 {
		return nil
	}
	head := blk.Preds[0]
	if len(head.Succs) != 2 || head.Succs[0].Kind != "if.then" {
		return nil
	}
	be, ok := ast.Unparen(head.Nodes[len(head.Nodes)-1].(ast.Expr)).(*ast.BinaryExpr)
	if !ok || (be.Op == token.NEQ) != (blk == head.Succs[0]) {
		return nil
	}
	return nilOperand(be)
}

// nilOperand returns x when be is x == nil, x != nil or the mirrored
// form, and nil otherwise.
func nilOperand(be *ast.BinaryExpr) *ast.Ident {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return nil
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNil(x) {
		x = y
	} else if !isNil(y) {
		return nil
	}
	id, _ := x.(*ast.Ident)
	return id
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
