// Package spanpair proves that every span opened with
// (*obs.Tracer).Begin is closed with (*obs.OpenSpan).End on every path
// out of the opening function — early returns, panic exits and loop
// back edges included.
//
// An OpenSpan records nothing until End runs, so a leaked handle is a
// silent hole in the trace: the run looks complete, diffs clean against
// itself, and only a cross-run comparison against a fixed span count
// notices the loss. That failure mode is exactly what regression tests
// are bad at (the missing span is on the error path the test didn't
// take), and exactly what an all-paths dataflow analysis is good at.
//
// The analysis is a forward may-problem over the function's CFG: a
// Begin call assigned to a trackable local generates an "open" fact;
// the fact is killed by an End call on that handle, by a defer that
// ends it (directly or from a deferred closure — covering both the
// return and panic exits), or by any ownership transfer (the handle is
// passed to a call, returned, stored, or copied — whoever received it
// is now responsible). A fact still live at the function's exit or
// panic block is reported at the Begin site. Handles the analysis
// cannot track (address-taken, assigned from nested closures) are
// trusted. Nil-checks (s == nil, s != nil) neither close nor transfer.
//
// Suppress with //gflink:span-escapes on the Begin line when ownership
// genuinely leaves through a path the analysis cannot see.
package spanpair

import (
	"go/ast"
	"go/types"

	"gflink/internal/analysis"
)

// Analyzer implements the spanpair check.
var Analyzer = &analysis.Analyzer{
	Name: "spanpair",
	Doc:  "every obs.Tracer.Begin must reach a matching OpenSpan.End (or visibly transfer ownership) on all paths out of the function",
	Run:  run,
}

const obsPath = "gflink/internal/obs"

func run(pass *analysis.Pass) (interface{}, error) {
	// Function literals are scopes of their own: a Begin inside a
	// closure must be closed by the closure (or escape from it).
	for _, sc := range analysis.FuncScopes(pass) {
		checkFunc(pass, sc)
	}
	return nil, nil
}

// isBeginCall reports whether call is (*obs.Tracer).Begin.
func isBeginCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.StaticCallee(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == obsPath &&
		analysis.ObjectKey(fn) == "Tracer.Begin"
}

// endReceiver returns the receiver identifier of an (*obs.OpenSpan).End
// call, or nil.
func endReceiver(info *types.Info, call *ast.CallExpr) *ast.Ident {
	fn := analysis.StaticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPath ||
		analysis.ObjectKey(fn) != "OpenSpan.End" {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, _ := ast.Unparen(sel.X).(*ast.Ident)
	return id
}

func checkFunc(pass *analysis.Pass, sc *analysis.FuncScope) {
	info := pass.TypesInfo
	cfg, rd, idx := sc.CFG, sc.RD, sc.Idx
	isBegin := func(call *ast.CallExpr) bool { return isBeginCall(info, call) }

	// Span facts: one per Begin call whose result lands in a trackable
	// local. Begin results that are immediately discarded are reported
	// outright; results that flow anywhere else (args, returns, fields)
	// are an ownership transfer and trusted.
	type span struct {
		def  *analysis.Def
		call *ast.CallExpr
	}
	var spans []span
	spanID := make(map[*analysis.Def]int)
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			rd.CallDefs(n, isBegin, func(d *analysis.Def, call *ast.CallExpr) {
				if _, seen := spanID[d]; seen {
					return
				}
				spanID[d] = len(spans)
				spans = append(spans, span{def: d, call: call})
			})
			// A Begin whose result is discarded leaks immediately.
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok && isBeginCall(info, call) {
					report(pass, idx, call)
				}
			}
		}
	}
	if len(spans) == 0 {
		return
	}

	// kills resolves, for one node, which span facts it closes or
	// transfers. Evaluated inside the transfer function so the result
	// respects each path's reaching definitions. A range statement's
	// body is other blocks, so only its header is walked here: an End
	// in the body does not close the span on the zero-iteration path.
	kills := func(n ast.Node, live []bool) {
		n = analysis.Header(n)
		nilCmp := analysis.NilComparisonIdents(n)
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if recvID := endReceiver(info, call); recvID != nil {
					for _, d := range rd.DefsAt(recvID) {
						if id, ok := spanID[d]; ok {
							live[id] = false
						}
					}
					// The receiver is consumed; don't double-count it
					// as an escape below. Skipping the Fun subtree is
					// enough: arguments are still inspected.
					for _, a := range call.Args {
						ast.Inspect(a, func(n ast.Node) bool { return escapeVisit(n, rd, spanID, nilCmp, live) })
					}
					return false
				}
			}
			return escapeVisit(n, rd, spanID, nilCmp, live)
		})
		// An End inside any nested closure covers the variable for the
		// whole function: deferred closures run on return and panic,
		// and callback closures transfer ownership out of this flow.
		ast.Inspect(n, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				recvID := endReceiver(info, call)
				if recvID == nil {
					return true
				}
				v, _ := info.Uses[recvID].(*types.Var)
				if v == nil {
					return true
				}
				for d, id := range spanID {
					if d.Var == v {
						live[id] = false
					}
				}
				return true
			})
			return false
		})
	}

	in := analysis.SolveMay(cfg, len(spans), func(blk *analysis.Block, live []bool) {
		for _, n := range blk.Nodes {
			kills(n, live)
			rd.CallDefs(n, isBegin, func(d *analysis.Def, _ *ast.CallExpr) {
				if id, ok := spanID[d]; ok {
					live[id] = true
				}
			})
		}
	})

	// The panic exit counts: deferred Ends run there too, and a span
	// still open on it is never recorded.
	for i, sp := range spans {
		if in[cfg.Exit][i] || in[cfg.Panic][i] {
			report(pass, idx, sp.call)
		}
	}
}

// escapeVisit kills span facts whose variable is used in any ownership-
// transferring position: everything except an End receiver (handled by
// the caller) and nil comparisons. Returns false to stop descending.
func escapeVisit(n ast.Node, rd *analysis.ReachingDefs, spanID map[*analysis.Def]int, nilCmp map[*ast.Ident]bool, live []bool) bool {
	if _, ok := n.(*ast.FuncLit); ok {
		return false // closures are checked separately
	}
	id, ok := n.(*ast.Ident)
	if !ok || nilCmp[id] {
		return true
	}
	for _, d := range rd.DefsAt(id) {
		if sid, ok := spanID[d]; ok {
			live[sid] = false
		}
	}
	return true
}

func report(pass *analysis.Pass, idx map[string]map[int]bool, call *ast.CallExpr) {
	if analysis.DirectiveAt(idx, pass.Fset, "span-escapes", call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(), "span opened by Tracer.Begin is not ended on every path out of the function; close it with OpenSpan.End (or //gflink:span-escapes if ownership leaves invisibly)")
}
