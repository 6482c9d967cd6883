// Package poolsafe proves the pool discipline behind allocation-free
// hot paths: a value obtained from a //gflink:pool-annotated source (a
// Get-like method of a free-list type) must reach exactly one matching
// Put on every non-panicking path out of the acquiring function, and
// must not be referenced — directly or through a reference retained by
// an earlier call — after it has been returned to the pool.
//
// The analysis is a forward may-problem over the function's CFG (the
// same path-pair machinery as spanpair), with three bits per
// acquisition: live (acquired, not yet returned), done (returned), and
// retained (an earlier call kept a reference, per bufescape-style
// retention: imported Retains facts cross-package, a lexical scan for
// same-package callees). Findings:
//
//   - live at the exit block: the value leaks on some path (panic
//     exits are deliberately exempt — an abandoned pooled object on a
//     dying path costs one recycle, not correctness);
//   - Put while done: the value may be returned twice;
//   - any use while done: use after Put;
//   - Put while retained: the retained reference escapes the Put.
//
// Ownership transfer is the escape hatch, exactly as in spanpair:
// storing the value (into a slice, field, channel, or another
// variable), returning it, appending it, or capturing it in a closure
// hands the Put obligation to the new owner and ends tracking. Plain
// uses — field reads and writes, indexing, nil comparisons, passing to
// a non-retaining callee — keep the obligation in place. A Put inside
// a defer discharges the obligation on both the return and panic edges
// without marking the value done at the defer statement itself, so
// uses between the defer and the return stay legal.
package poolsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"gflink/internal/analysis"
	"gflink/internal/analysis/bufescape"
)

// PoolSource is an object fact marking a //gflink:pool-annotated
// Get-like method, so acquisitions through it are tracked from other
// packages too.
type PoolSource struct{}

// AFact marks PoolSource as a fact type.
func (*PoolSource) AFact() {}

// Analyzer is the poolsafe analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "poolsafe",
	Doc:       "values from //gflink:pool sources must reach exactly one Put on every path and not escape after Put",
	Run:       run,
	FactTypes: []analysis.Fact{(*PoolSource)(nil)},
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{
		pass:    pass,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		sources: make(map[*types.Func]bool),
		retain:  make(map[*types.Func][]bool),
	}
	for _, f := range pass.Files {
		idx := analysis.DirectiveIndex(pass.Fset, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c.decls[obj] = fd
			if analysis.DirectiveAt(idx, pass.Fset, "pool", fd.Pos()) {
				c.sources[obj] = true
				if analysis.ObjectKey(obj) != "" {
					pass.ExportObjectFact(obj, &PoolSource{})
				}
			}
		}
	}
	// Only declared functions are checked; a literal's acquisitions
	// are its enclosing function's business.
	for _, sc := range analysis.FuncScopes(pass) {
		if sc.Decl != nil {
			c.checkFunc(sc)
		}
	}
	return nil, nil
}

type checker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	sources map[*types.Func]bool
	retain  map[*types.Func][]bool // lexical retention cache, by param
}

// isSource reports whether a call acquires from an annotated pool, and
// if so which pool type owns the value (the source's receiver type).
func (c *checker) isSource(call *ast.CallExpr) (*types.Named, bool) {
	fn := staticOrigin(c.pass.TypesInfo, call)
	if fn == nil {
		return nil, false
	}
	if !c.sources[fn] && !c.pass.ImportObjectFact(fn, &PoolSource{}) {
		return nil, false
	}
	return recvNamed(fn), true
}

func (c *checker) isSourceCall(call *ast.CallExpr) bool {
	_, ok := c.isSource(call)
	return ok
}

// retains reports whether fn keeps a reference to its i'th parameter:
// by imported bufescape Retains fact, or for same-package callees by a
// lexical scan.
func (c *checker) retains(fn *types.Func, i int) bool {
	sig, _ := fn.Type().(*types.Signature)
	var fact bufescape.Retains
	if c.pass.ImportObjectFact(fn, &fact) {
		return paramBit(fact.Params, sig, i)
	}
	ps, ok := c.retain[fn]
	if !ok {
		ps = c.lexicalRetention(fn)
		c.retain[fn] = ps
	}
	return paramBit(ps, sig, i)
}

func paramBit(ps []bool, sig *types.Signature, i int) bool {
	if sig != nil && sig.Variadic() && i >= len(ps)-1 {
		i = len(ps) - 1
	}
	return i >= 0 && i < len(ps) && ps[i]
}

// lexicalRetention scans a same-package callee's body: a parameter is
// retained when it is stored (assignment right-hand side, composite
// literal element, channel send, append argument) or captured by a
// function literal.
func (c *checker) lexicalRetention(fn *types.Func) []bool {
	decl := c.decls[fn]
	sig, _ := fn.Type().(*types.Signature)
	if decl == nil || decl.Body == nil || sig == nil {
		return nil
	}
	ps := make([]bool, sig.Params().Len())
	vars := make(map[*types.Var]int, len(ps))
	for i := 0; i < sig.Params().Len(); i++ {
		vars[sig.Params().At(i)] = i
	}
	info := c.pass.TypesInfo
	var stack []ast.Node
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				if i, ok := vars[v]; ok && retainingUse(stack, id) {
					ps[i] = true
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	return ps
}

// retainingUse reports whether a parameter occurrence stores the
// reference beyond the call.
func retainingUse(stack []ast.Node, id *ast.Ident) bool {
	for _, a := range stack {
		if _, ok := a.(*ast.FuncLit); ok {
			return true
		}
	}
	switch p := parentOf(stack).(type) {
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if ast.Unparen(l) == ast.Expr(id) {
				return false
			}
		}
		return true // on a right-hand side: stored somewhere
	case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		return true
	case *ast.CallExpr:
		fun, ok := ast.Unparen(p.Fun).(*ast.Ident)
		return ok && fun.Name == "append"
	}
	return false
}

// parentOf returns the nearest non-paren ancestor.
func parentOf(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func sameNamed(a, b *types.Named) bool {
	if a == nil || b == nil {
		return false
	}
	ao, bo := a.Obj(), b.Obj()
	if ao.Pkg() == nil || bo.Pkg() == nil {
		return ao == bo
	}
	return ao.Name() == bo.Name() && ao.Pkg().Path() == bo.Pkg().Path()
}

// acq is one tracked acquisition: a definition whose RHS is a source
// call.
type acq struct {
	def  *analysis.Def
	call *ast.CallExpr
	pool *types.Named
}

func (c *checker) checkFunc(sc *analysis.FuncScope) {
	cfg, rd := sc.CFG, sc.RD

	var acqs []acq
	acqID := make(map[*analysis.Def]int)
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			rd.CallDefs(n, c.isSourceCall, func(d *analysis.Def, call *ast.CallExpr) {
				if _, seen := acqID[d]; seen {
					return
				}
				pool, _ := c.isSource(call)
				acqID[d] = len(acqs)
				acqs = append(acqs, acq{def: d, call: call, pool: pool})
			})
			// A discarded acquisition leaks immediately.
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
					if _, src := c.isSource(call); src {
						c.pass.Reportf(call.Pos(), "pooled value is discarded; acquire into a variable and return it with Put (or don't acquire)")
					}
				}
			}
		}
	}
	if len(acqs) == 0 {
		return
	}

	in := analysis.SolveMay(cfg, 3*len(acqs), func(blk *analysis.Block, s []bool) {
		for _, n := range blk.Nodes {
			c.process(rd, acqs, acqID, n, s, nil)
		}
	})

	// Reporting pass: re-walk each block once from its solved entry
	// state (the solver's transfer must stay silent — it runs to
	// fixpoint).
	seen := make(map[token.Pos]map[string]bool)
	rep := func(pos token.Pos, kind, msg string) {
		if seen[pos] == nil {
			seen[pos] = make(map[string]bool)
		}
		if seen[pos][kind] {
			return
		}
		seen[pos][kind] = true
		c.pass.Reportf(pos, "%s", msg)
	}
	for _, blk := range cfg.Blocks {
		s := append([]bool(nil), in[blk]...)
		for _, n := range blk.Nodes {
			c.process(rd, acqs, acqID, n, s, rep)
		}
	}

	// Exactly-one-Put: still live at the exit block means some
	// non-panicking path abandons the value.
	for i, open := range in[cfg.Exit][:len(acqs)] {
		if open {
			rep(acqs[i].call.Pos(), "leak",
				"pooled value is not returned with Put on every path out of the function (store or hand it off to transfer the obligation)")
		}
	}
}

// process applies one statement's effect to the state vector s
// (layout: [live... done... retained...]); with a non-nil reporter it
// also emits findings.
func (c *checker) process(rd *analysis.ReachingDefs, acqs []acq, acqID map[*analysis.Def]int, node ast.Node, s []bool, rep func(token.Pos, string, string)) {
	info := c.pass.TypesInfo
	n := len(acqs)
	nilCmp := analysis.NilComparisonIdents(node)
	consumed := make(map[*ast.Ident]bool)

	// applyPut resolves one call as a Put of tracked values. asDefer
	// discharges the obligation without marking the value done — a
	// deferred Put runs at function exit, so later uses stay legal.
	applyPut := func(call *ast.CallExpr, asDefer bool) {
		fn := staticOrigin(info, call)
		if fn == nil || fn.Name() != "Put" {
			return
		}
		rn := recvNamed(fn)
		for _, a := range call.Args {
			id, ok := ast.Unparen(a).(*ast.Ident)
			if !ok {
				continue
			}
			for _, d := range rd.DefsAt(id) {
				i, ok := acqID[d]
				if !ok || !sameNamed(rn, acqs[i].pool) {
					continue
				}
				consumed[id] = true
				if rep != nil && s[n+i] {
					rep(call.Pos(), "double", "pooled value may already have been returned; a second Put corrupts the free list")
				}
				if rep != nil && s[2*n+i] {
					rep(call.Pos(), "retained", "pooled value was retained by an earlier call and is returned to the pool while still referenced (escape after Put)")
				}
				s[i] = false
				if !asDefer {
					s[n+i] = true
				}
			}
		}
	}

	// handleDefer covers defer p.Put(w) and deferred closures that put
	// captured values (matched by variable, as in spanpair).
	handleDefer := func(def *ast.DeferStmt) {
		applyPut(def.Call, true)
		lit, ok := ast.Unparen(def.Call.Fun).(*ast.FuncLit)
		if !ok {
			return
		}
		ast.Inspect(lit.Body, func(y ast.Node) bool {
			call, ok := y.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticOrigin(info, call)
			if fn == nil || fn.Name() != "Put" {
				return true
			}
			rn := recvNamed(fn)
			for _, a := range call.Args {
				id, ok := ast.Unparen(a).(*ast.Ident)
				if !ok {
					continue
				}
				v, _ := info.Uses[id].(*types.Var)
				if v == nil {
					continue
				}
				for i, ac := range acqs {
					if ac.def.Var == v && sameNamed(rn, ac.pool) {
						s[i] = false
					}
				}
			}
			return true
		})
	}

	if def, ok := node.(*ast.DeferStmt); ok {
		handleDefer(def)
		return
	}

	var stack []ast.Node
	ast.Inspect(node, func(x ast.Node) (descend bool) {
		if x == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend = true
		defer func() {
			if descend {
				stack = append(stack, x)
			}
		}()
		switch x := x.(type) {
		case *ast.DeferStmt:
			handleDefer(x)
			return false
		case *ast.FuncLit:
			// Capturing the value transfers ownership to the closure.
			ast.Inspect(x.Body, func(y ast.Node) bool {
				if id, ok := y.(*ast.Ident); ok {
					if v, _ := info.Uses[id].(*types.Var); v != nil {
						for i, ac := range acqs {
							if ac.def.Var == v {
								s[i] = false
							}
						}
					}
				}
				return true
			})
			return false
		case *ast.CallExpr:
			applyPut(x, false)
		case *ast.Ident:
			if consumed[x] || nilCmp[x] {
				return true
			}
			for _, d := range rd.DefsAt(x) {
				i, ok := acqID[d]
				if !ok {
					continue
				}
				if rep != nil && s[n+i] {
					rep(x.Pos(), "useafter", "pooled value used after being returned to the pool")
				}
				switch c.classifyUse(stack, x) {
				case useRetain:
					s[2*n+i] = true
				case useTransfer:
					s[i] = false
				}
			}
		}
		return true
	})

	// Gen after kills, strong update: a fresh acquisition resets all
	// three bits for its definition.
	rd.CallDefs(node, c.isSourceCall, func(d *analysis.Def, _ *ast.CallExpr) {
		if i, ok := acqID[d]; ok {
			s[i] = true
			s[n+i] = false
			s[2*n+i] = false
		}
	})
}

type useKind int

const (
	useNeutral useKind = iota
	useRetain
	useTransfer
)

// classifyUse decides what one occurrence of a tracked value does to
// the Put obligation. Field access, indexing, dereference, nil
// comparison and reassignment are neutral; a call argument retains or
// stays neutral depending on the callee; everything else (stores,
// returns, sends, composite literals, address-of, dynamic calls)
// transfers ownership.
func (c *checker) classifyUse(stack []ast.Node, id *ast.Ident) useKind {
	switch p := parentOf(stack).(type) {
	case *ast.SelectorExpr:
		if ast.Unparen(p.X) == ast.Expr(id) {
			return useNeutral
		}
	case *ast.IndexExpr:
		if ast.Unparen(p.X) == ast.Expr(id) {
			return useNeutral
		}
	case *ast.SliceExpr:
		if ast.Unparen(p.X) == ast.Expr(id) {
			return useNeutral
		}
	case *ast.StarExpr:
		return useNeutral
	case *ast.BinaryExpr:
		if p.Op == token.EQL || p.Op == token.NEQ {
			return useNeutral
		}
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if ast.Unparen(l) == ast.Expr(id) {
				return useNeutral // reassignment; reaching defs retire this def
			}
		}
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == ast.Expr(id) {
			return useTransfer // calling a pooled func value: unknown
		}
		ai := -1
		for j, a := range p.Args {
			if ast.Unparen(a) == ast.Expr(id) {
				ai = j
			}
		}
		if ai < 0 {
			return useTransfer
		}
		callee := staticOrigin(c.pass.TypesInfo, p)
		if callee == nil {
			// Builtins: append stores, the rest only read; calls
			// through function values are unknown and transfer.
			if fun, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
				if _, isBuiltin := c.pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
					if fun.Name == "append" {
						return useTransfer
					}
					return useNeutral
				}
			}
			return useTransfer
		}
		if c.retains(callee, ai) {
			return useRetain
		}
		return useNeutral
	}
	return useTransfer
}

// staticOrigin resolves a call's static callee, canonicalized to its
// generic origin so local lookups and facts line up for instantiated
// methods.
func staticOrigin(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := analysis.StaticCallee(info, call)
	if fn != nil {
		fn = fn.Origin()
	}
	return fn
}
