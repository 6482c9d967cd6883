// Package maporder flags `for range` loops over maps whose bodies have
// order-observable effects.
//
// Go randomizes map iteration order, and the simulator's claims rest on
// byte-identical reproducibility: every reproduced figure is a
// deterministic function of the virtual clock, and the virtual clock's
// schedule is itself a function of the order in which processes are
// spawned, woken and charged. A map-ordered loop that appends to a
// slice, sends on a channel, accumulates floating-point values, or
// calls into the clock makes results differ between two runs of the
// *same binary* — the one nondeterminism class that survives vclock,
// -race and the wallclock analyzer.
//
// An effect is order-observable when the loop body
//
//   - appends to a slice declared outside the loop (exempted when the
//     slice is passed to a sort/slices call after the loop — the
//     canonical collect-keys-then-sort idiom),
//   - sends on a channel,
//   - accumulates float or string values into a variable declared
//     outside the loop (integer accumulation is exactly associative and
//     commutative, so it stays legal),
//   - calls a function that may touch the virtual clock — directly, or
//     transitively through any chain of static calls. Transitive reach
//     is computed interprocedurally: the analyzer exports a UsesVClock
//     fact for every function that can reach package vclock, and
//     imports those facts when analyzing dependent packages, or
//   - panics with, or returns, loop-derived values (which entry
//     triggers first is nondeterministic).
//
// Loops whose iteration order is genuinely irrelevant carry
// //gflink:unordered on the `for` line or the line above, with a
// justification.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"gflink/internal/analysis"
)

// UsesVClock marks a function that may observe or advance the virtual
// clock, directly or transitively. Exported for every such function so
// dependent packages inherit the reachability relation.
type UsesVClock struct{}

// AFact marks UsesVClock as a fact type.
func (*UsesVClock) AFact() {}

const vclockPath = "gflink/internal/vclock"

// Analyzer implements the maporder check.
var Analyzer = &analysis.Analyzer{
	Name:      "maporder",
	Doc:       "flag range-over-map loops with order-observable effects (slice appends, channel sends, float accumulation, virtual-clock calls, loop-derived panics/returns); suppress with //gflink:unordered",
	Run:       run,
	FactTypes: []analysis.Fact{(*UsesVClock)(nil)},
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := analysis.BuildCallGraph(pass)

	// Interprocedural clock reachability: seed with direct calls into
	// package vclock, close over the package's call graph with imported
	// facts resolving cross-package callees, then export.
	reach := g.Fixpoint(
		func(fi *analysis.FuncInfo) []string {
			for _, c := range fi.Callees {
				if touchesVClockDirect(c) {
					return []string{"vclock"}
				}
			}
			return nil
		},
		func(callee *types.Func) []string {
			if touchesVClockDirect(callee) || pass.ImportObjectFact(callee, &UsesVClock{}) {
				return []string{"vclock"}
			}
			return nil
		},
	)
	for _, fi := range g.Decls {
		if len(reach[fi.Obj]) > 0 {
			pass.ExportObjectFact(fi.Obj, &UsesVClock{})
		}
	}

	touchesClock := func(fn *types.Func) bool {
		if touchesVClockDirect(fn) {
			return true
		}
		if set, ok := reach[fn]; ok {
			return len(set) > 0
		}
		return pass.ImportObjectFact(fn, &UsesVClock{})
	}

	for _, f := range pass.Files {
		idx := analysis.DirectiveIndex(pass.Fset, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if !isMapRange(pass, rs) {
					return true
				}
				if analysis.DirectiveAt(idx, pass.Fset, "unordered", rs.Pos()) {
					return true
				}
				checkLoop(pass, fd.Body, rs, touchesClock)
				return true
			})
		}
	}
	return nil, nil
}

// touchesVClockDirect reports whether fn is itself part of the virtual
// clock: any function or method of package vclock observes or advances
// virtual time (even Clock.Now is an observation whose order matters).
func touchesVClockDirect(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == vclockPath
}

// isMapRange reports whether the range expression's core type is a map.
func isMapRange(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkLoop reports every order-observable effect of one map-ranged
// loop body.
func checkLoop(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, touchesClock func(*types.Func) bool) {
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			loopVars[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			loopVars[obj] = true
		}
	}
	usesLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopVars[pass.TypesInfo.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "nondeterministic map iteration: channel send in map-iteration order; sort the keys first or annotate the loop with //gflink:unordered")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesLoopVar(res) {
					pass.Reportf(n.Pos(), "nondeterministic map iteration: returns loop-derived values (which entry returns first is nondeterministic); sort the keys first or annotate the loop with //gflink:unordered")
					break
				}
			}
		case *ast.AssignStmt:
			checkAssign(pass, fnBody, rs, n)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" && isBuiltinUse(pass, id) {
				for _, arg := range n.Args {
					if usesLoopVar(arg) {
						pass.Reportf(n.Pos(), "nondeterministic map iteration: panics with loop-derived values (which entry panics is nondeterministic); sort the keys first or annotate the loop with //gflink:unordered")
						break
					}
				}
				return true
			}
			if callee := analysis.StaticCallee(pass.TypesInfo, n); callee != nil && touchesClock(callee) {
				pass.Reportf(n.Pos(), "nondeterministic map iteration: %s may observe or advance the virtual clock, making the schedule depend on map order; sort the keys first or annotate the loop with //gflink:unordered", calleeName(callee))
			}
		}
		return true
	})
}

// checkAssign flags appends to outer slices and non-associative
// accumulation into outer variables.
func checkAssign(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, asg *ast.AssignStmt) {
	outerObj := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if obj == nil {
			return nil
		}
		if obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
			return nil // declared inside the loop
		}
		return obj
	}

	// Accumulation: x += v / x -= v / x *= v ... on float or string.
	switch asg.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if obj := outerObj(asg.Lhs[0]); obj != nil && nonAssociative(obj.Type()) {
			pass.Reportf(asg.Pos(), "nondeterministic map iteration: accumulates %s into %q in map-iteration order (floating-point addition is not associative); sort the keys first or annotate the loop with //gflink:unordered", obj.Type(), obj.Name())
		}
		return
	case token.ASSIGN, token.DEFINE:
	default:
		return
	}

	for i, rhs := range asg.Rhs {
		if i >= len(asg.Lhs) {
			break
		}
		// x = x + v on float/string.
		if bin, ok := rhs.(*ast.BinaryExpr); ok && (bin.Op == token.ADD || bin.Op == token.SUB || bin.Op == token.MUL || bin.Op == token.QUO) {
			if obj := outerObj(asg.Lhs[i]); obj != nil && nonAssociative(obj.Type()) {
				if x, ok := bin.X.(*ast.Ident); ok && pass.TypesInfo.Uses[x] == obj {
					pass.Reportf(asg.Pos(), "nondeterministic map iteration: accumulates %s into %q in map-iteration order (floating-point addition is not associative); sort the keys first or annotate the loop with //gflink:unordered", obj.Type(), obj.Name())
					continue
				}
			}
		}
		// x = append(x, ...) into an outer slice.
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || !isBuiltinUse(pass, id) {
			continue
		}
		obj := outerObj(asg.Lhs[i])
		if obj == nil {
			continue
		}
		if sortedAfter(pass, fnBody, rs, obj) {
			continue // collect-then-sort idiom
		}
		pass.Reportf(asg.Pos(), "nondeterministic map iteration: appends to %q in map-iteration order and %q is never sorted afterwards; sort it (sort.Slice, slices.Sort, ...) or annotate the loop with //gflink:unordered", obj.Name(), obj.Name())
	}
}

// isBuiltinUse reports whether id denotes a predeclared builtin (not a
// user-defined shadow).
func isBuiltinUse(pass *analysis.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// nonAssociative reports whether accumulating values of type t is
// order-sensitive: floating point, complex, and string concatenation.
func nonAssociative(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0
}

// sortedAfter reports whether obj is passed to a sort or slices call
// after the loop within the same function body.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		callee := analysis.StaticCallee(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if p := callee.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// calleeName renders a callee for diagnostics.
func calleeName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
			return "(" + n.Obj().Pkg().Name() + "." + n.Obj().Name() + ")." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
