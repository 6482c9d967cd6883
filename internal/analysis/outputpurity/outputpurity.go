// Package outputpurity enforces DESIGN.md invariant 9: code that is
// reachable only when an opt-in feature (SoA column projection, the
// host paging tier) is enabled must not write result buffers, so
// enabling a feature can change *when* bytes move but never *which*
// bytes the caller observes.
//
// A function is feature-gated when its declaration carries a
// //gflink:gated <feature> directive (the annotation the gated entry
// points in internal/core carry), or transitively when every one of
// its in-package static callers is gated — helpers reachable only from
// gated code inherit the obligation; a single ungated caller breaks
// the inheritance because the helper then also runs on the default
// path, where copies are the norm.
//
// Inside gated functions (function literals included) every copy is
// flagged — the stream copies a gstream worker enqueues, whole-buffer
// and ranged alike, and the builtin copy. No directive exempts one.
package outputpurity

import (
	"go/ast"
	"go/types"
	"strings"

	"gflink/internal/analysis"
)

// Analyzer implements the outputpurity check.
var Analyzer = &analysis.Analyzer{
	Name: "outputpurity",
	Doc:  "feature-gated code must not write result buffers",
	Run:  run,
}

// copyCalls lists the entry points that move buffer bytes, by package
// path and then object key.
var copyCalls = map[string]map[string]bool{
	"gflink/internal/gpu": {
		"Stream.H2DAsync":       true,
		"Stream.H2DRangesAsync": true,
		"Stream.D2HAsync":       true,
	},
}

// scope is one declared function in a non-test file.
type scope struct {
	obj *types.Func
	fd  *ast.FuncDecl
	idx map[string]map[int]bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	info := pass.TypesInfo
	var scopes []*scope
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		idx := analysis.DirectiveIndex(pass.Fset, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			scopes = append(scopes, &scope{obj: obj, fd: fd, idx: idx})
		}
	}

	// Callers of each in-package function, from non-test files only
	// (so a test exercising a helper directly cannot flip its
	// gatedness between runs that do and don't load tests).
	callers := make(map[*types.Func]map[*types.Func]bool)
	declared := make(map[*types.Func]bool, len(scopes))
	for _, sc := range scopes {
		declared[sc.obj] = true
	}
	for _, sc := range scopes {
		ast.Inspect(sc.fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.StaticCallee(info, call)
			if callee == nil || !declared[callee] {
				return true
			}
			if callers[callee] == nil {
				callers[callee] = make(map[*types.Func]bool)
			}
			callers[callee][sc.obj] = true
			return true
		})
	}

	// Gatedness: directive-seeded, then propagated to every function
	// all of whose callers are gated (least fixpoint — monotone, since
	// growing the gated set can only satisfy more "all callers" tests).
	gated := make(map[*types.Func]bool)
	for _, sc := range scopes {
		if analysis.DirectiveAt(sc.idx, pass.Fset, "gated", sc.fd.Pos()) {
			gated[sc.obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, sc := range scopes {
			if gated[sc.obj] || len(callers[sc.obj]) == 0 {
				continue
			}
			all := true
			for c := range callers[sc.obj] {
				if !gated[c] {
					all = false
					break
				}
			}
			if all {
				gated[sc.obj] = true
				changed = true
			}
		}
	}

	for _, sc := range scopes {
		if gated[sc.obj] {
			checkGated(pass, sc)
		}
	}
	return nil, nil
}

// checkGated walks one gated function (nested literals included) and
// flags every copy.
func checkGated(pass *analysis.Pass, sc *scope) {
	info := pass.TypesInfo
	ast.Inspect(sc.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isBuiltinCopy(info, call) {
			fn := analysis.StaticCallee(info, call)
			if fn == nil || fn.Pkg() == nil || !copyCalls[fn.Pkg().Path()][analysis.ObjectKey(fn)] {
				return true
			}
		}
		pass.Reportf(call.Pos(), "copy inside feature-gated code; gated paths must not write result buffers (invariant 9)")
		return true
	})
}

// isBuiltinCopy recognizes the builtin copy, which StaticCallee cannot
// resolve (builtins have no *types.Func).
func isBuiltinCopy(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "copy" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
