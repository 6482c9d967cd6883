package analysis

import (
	"go/ast"
	"go/types"
)

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
