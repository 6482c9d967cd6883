package analysis

import (
	"go/ast"
	"go/types"
)

// FuncInfo is one function declared in an analyzed package.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
}

// FuncDecls lists the functions with bodies declared in the pass's
// files, in source order. The interprocedural analyzers (bufescape)
// iterate their per-function facts over it to a fixpoint, resolving
// calls on demand through StaticCallee: direct calls to declared
// functions and methods. Calls through function values and interface
// methods are invisible, which keeps those analyzers sound only for
// the direct-call discipline the simulator actually uses; cross-package
// callees resolve through Import*Fact.
func FuncDecls(pass *Pass) []*FuncInfo {
	var fns []*FuncInfo
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				fns = append(fns, &FuncInfo{Obj: obj, Decl: fd})
			}
		}
	}
	return fns
}

// StaticCallee resolves the declared function or method a call
// expression statically targets, or nil for calls through function
// values, interface methods, type conversions, and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				// Interface method calls have no static body.
				if recv := sel.Recv(); recv != nil {
					if _, iface := recv.Underlying().(*types.Interface); iface {
						return nil
					}
				}
				return fn
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
