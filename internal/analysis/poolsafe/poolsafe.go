// Package poolsafe proves buffer ownership: a value from an owning
// source must be released exactly once on every non-panicking path out
// of the acquiring function, and must not be referenced — directly or
// through a reference retained by an earlier call — once released.
// The sources are //gflink:pool-annotated Get-like methods (released
// with the pool's Put; the discipline behind allocation-free hot
// paths) and membuf's Pool.Allocate and Pool.MustAllocate (released
// with HBuffer.Free, recognized by type: membuf is outside the suite's
// scope). The paper's GMemoryManager owns each buffer's lifetime
// exactly once (Section 4.1.2); a leaked HBuffer stays charged against
// the off-heap pool, a failure Go's GC cannot see ("Garbage Collection
// or Serialization?" in PAPERS.md). HBuffer.Pin opens a second
// obligation, dropped by Unpin, Free or a transfer: pinned pages are
// excluded from cache reclaim.
//
// Each function body — declared or literal — is a forward may-problem
// over its CFG with four bits per obligation: live (not yet released),
// done (released), retained (an earlier call kept a reference: by
// imported bufescape Retains facts, or a lexical scan of same-package
// callees) and bare (some path has no deferred release armed).
// Findings: live at the exit (panic exits are exempt: an abandoned
// value on a dying path costs one recycle, not correctness); a release
// while done; any use while done; a release while retained; and an
// acquisition discarded outright (a bare call, or assigned to _).
//
// Storing the value (into a slice, field, channel, or another
// variable), returning, appending or capturing it transfers the
// obligation and ends tracking; field access, indexing, nil
// comparisons and non-retaining callees keep it. A deferred release
// discharges the obligation without marking the value done, so later
// uses stay legal. Where the error returned with an acquisition is
// known non-nil (if err != nil { ... }) there is nothing to release. A
// transfer the analysis cannot see is documented with
// //gflink:owns-buffer on (or above) the acquisition or Pin line.
package poolsafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

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
	Doc:       "values from //gflink:pool sources and membuf HBuffers (and HBuffer pins) must be released exactly once on every path and not used after release (suppress leaks with //gflink:owns-buffer)",
	Run:       run,
	FactTypes: []analysis.Fact{(*PoolSource)(nil)},
}

const membufPath = "gflink/internal/membuf"

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{
		pass:    pass,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		sources: make(map[*types.Func]bool),
		retain:  make(map[*types.Func][]bool),
	}
	scopes := analysis.FuncScopes(pass)
	for _, sc := range scopes {
		if sc.Obj == nil {
			continue
		}
		c.decls[sc.Obj] = sc.Decl
		if analysis.DirectiveAt(sc.Idx, pass.Fset, "pool", sc.Decl.Pos()) {
			c.sources[sc.Obj] = true
			if analysis.ObjectKey(sc.Obj) != "" {
				pass.ExportObjectFact(sc.Obj, &PoolSource{})
			}
		}
	}
	// A literal's free variables are untracked inside it, so a value
	// acquired outside and released inside stays the enclosing
	// scope's business (capturing it is a transfer there).
	for _, sc := range scopes {
		c.checkFunc(sc)
	}
	return nil, nil
}

type checker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	sources map[*types.Func]bool
	retain  map[*types.Func][]bool // lexical retention cache, by param
}

// source reports whether a call acquires a tracked value, returning
// the kind and the source function.
func (c *checker) source(call *ast.CallExpr) (kind, *types.Func, bool) {
	fn := staticOrigin(c.pass.TypesInfo, call)
	if key := membufKey(fn); key == "Pool.Allocate" || key == "Pool.MustAllocate" {
		return hbuffer, fn, true
	}
	return pooled, fn, fn != nil && (c.sources[fn] || c.pass.ImportObjectFact(fn, &PoolSource{}))
}

func (c *checker) isSourceCall(call *ast.CallExpr) bool {
	_, _, ok := c.source(call)
	return ok
}

// membufKey is the "Type.Method" key of a membuf method, else "".
func membufKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != membufPath {
		return ""
	}
	return analysis.ObjectKey(fn)
}

// released resolves a call as a release: pool.Put(x) returns pooled
// x, x.Free() frees HBuffer x and drops its pins, x.Unpin() drops
// x's pins. It returns the released identifiers and which
// obligations on them the call discharges.
func (c *checker) released(call *ast.CallExpr) ([]*ast.Ident, func(acq) bool) {
	fn := staticOrigin(c.pass.TypesInfo, call)
	switch key := membufKey(fn); {
	case key == "HBuffer.Free" || key == "HBuffer.Unpin":
		return receiver(call), func(a acq) bool { return a.kind == pinned || key == "HBuffer.Free" && a.kind == hbuffer }
	case fn != nil && fn.Name() == "Put":
		var ids []*ast.Ident
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				ids = append(ids, id)
			}
		}
		rn := recvNamed(fn)
		return ids, func(a acq) bool { return a.kind == pooled && sameNamed(rn, a.pool) }
	}
	return nil, nil
}

// receiver returns the identifier a method is called on, if any.
func receiver(call *ast.CallExpr) []*ast.Ident {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			return []*ast.Ident{id}
		}
	}
	return nil
}

// discarded returns the acquisition a block node throws away: a bare
// call statement, or an assignment of the acquired value to _.
func (c *checker) discarded(n ast.Node) *ast.CallExpr {
	switch n := n.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && c.isSourceCall(call) {
			return call
		}
	case *ast.AssignStmt:
		for i, r := range n.Rhs {
			call, ok := ast.Unparen(r).(*ast.CallExpr)
			if id, _ := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && id != nil && id.Name == "_" && c.isSourceCall(call) {
				return call
			}
		}
	}
	return nil
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

// kind is what an obligation tracks and what discharges it.
type kind int

const (
	pooled  kind = iota // a //gflink:pool value, returned with Put
	hbuffer             // a membuf HBuffer, released with Free
	pinned              // a Pin on an HBuffer, dropped by Unpin or Free
)

// wording is a kind's text for the findings a release or use makes.
type wording struct{ double, useAfter, retained string }

var words = [...]wording{
	pooled: {
		double:   "pooled value may already have been returned; a second Put corrupts the free list",
		useAfter: "pooled value used after being returned to the pool",
		retained: "pooled value was retained by an earlier call and is returned to the pool while still referenced (escape after Put)",
	},
	hbuffer: {
		double:   "HBuffer may already have been freed; a second Free panics",
		useAfter: "HBuffer used after Free; its pages may already back another buffer",
		retained: "HBuffer was retained by an earlier call and is freed while still referenced",
	},
}

// acq is one obligation: an acquisition (a definition whose RHS is a
// source call) or a Pin of a tracked buffer.
type acq struct {
	kind kind
	def  *analysis.Def // the acquisition's definition; nil for a pin
	v    *types.Var
	call *ast.CallExpr // the acquiring or Pin call
	fn   *types.Func   // the source; nil for a pin
	pool *types.Named  // the pool type of a pooled value
}

// leak is the finding for an obligation still live at the exit.
func (a acq) leak() string {
	switch a.kind {
	case hbuffer:
		return fmt.Sprintf("HBuffer %q from Pool.%s is never freed or transferred in this function; call Free, or annotate the transfer with //gflink:owns-buffer", a.v.Name(), a.fn.Name())
	case pinned:
		return fmt.Sprintf("HBuffer %q is pinned but never unpinned, freed or transferred in this function; pinned pages are excluded from cache reclaim", a.v.Name())
	}
	return "pooled value is not returned with Put on every path out of the function (store or hand it off to transfer the obligation)"
}

// scope is one function's obligations, indexed by the definitions
// their value flows through and by the block node that opens them.
type scope struct {
	*checker
	entry *analysis.Block
	rd    *analysis.ReachingDefs
	acqs  []acq
	byDef map[*analysis.Def][]int
	gens  map[ast.Node][]int
}

func (f *scope) add(n ast.Node, a acq, defs ...*analysis.Def) {
	for _, d := range defs {
		f.byDef[d] = append(f.byDef[d], len(f.acqs))
	}
	f.gens[n] = append(f.gens[n], len(f.acqs))
	f.acqs = append(f.acqs, a)
}

func (c *checker) checkFunc(sc *analysis.FuncScope) {
	cfg, info := sc.CFG, c.pass.TypesInfo
	f := &scope{checker: c, entry: cfg.Entry, rd: sc.RD, byDef: make(map[*analysis.Def][]int), gens: make(map[ast.Node][]int)}
	owned := func(call *ast.CallExpr) bool {
		return analysis.DirectiveAt(sc.Idx, c.pass.Fset, "owns-buffer", call.Pos())
	}
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			f.rd.CallDefs(n, c.isSourceCall, func(d *analysis.Def, call *ast.CallExpr) {
				k, fn, _ := c.source(call)
				f.add(n, acq{kind: k, def: d, v: d.Var, call: call, fn: fn, pool: recvNamed(fn)}, d)
			})
			if call := c.discarded(n); call != nil && !owned(call) {
				if k, fn, _ := c.source(call); k == hbuffer {
					c.pass.Reportf(call.Pos(), "result of Pool.%s is discarded; the HBuffer leaks pool pages until off-heap exhaustion", fn.Name())
				} else {
					c.pass.Reportf(call.Pos(), "pooled value is discarded; acquire into a variable and return it with Put (or don't acquire)")
				}
			}
			analysis.ForEachCall(analysis.Header(n), func(call *ast.CallExpr) {
				if membufKey(staticOrigin(info, call)) != "HBuffer.Pin" {
					return
				}
				for _, id := range receiver(call) {
					if v, _ := info.Uses[id].(*types.Var); len(f.rd.DefsAt(id)) > 0 {
						f.add(n, acq{kind: pinned, v: v, call: call}, f.rd.DefsAt(id)...)
					}
				}
			})
		}
	}
	if len(f.acqs) == 0 {
		return
	}

	in := analysis.SolveMay(cfg, 4*len(f.acqs), func(blk *analysis.Block, s []bool) {
		f.block(blk, s, nil)
	})

	// Reporting pass: re-walk each block once from its solved entry
	// state (the solver's transfer must stay silent — it runs to
	// fixpoint).
	type finding struct {
		pos token.Pos
		msg string
	}
	seen := make(map[finding]bool)
	rep := func(pos token.Pos, msg string) {
		if !seen[finding{pos, msg}] {
			seen[finding{pos, msg}] = true
			c.pass.Reportf(pos, "%s", msg)
		}
	}
	for _, blk := range cfg.Blocks {
		f.block(blk, slices.Clone(in[blk]), rep)
	}

	// Exactly one release: still live at the exit block means some
	// non-panicking path abandons the value.
	for i, open := range in[cfg.Exit][:len(f.acqs)] {
		if a := f.acqs[i]; open && !owned(a.call) {
			rep(a.call.Pos(), a.leak())
		}
	}
}

// block applies one block to the state vector s (layout: [live...
// done... retained... bare...]); with a non-nil reporter it also emits
// findings. Every path starts bare. On a branch where the error
// defined with an acquisition is non-nil, there is nothing to release.
func (f *scope) block(blk *analysis.Block, s []bool, rep func(token.Pos, string)) {
	n := len(f.acqs)
	if blk == f.entry {
		for i := range f.acqs {
			s[3*n+i] = true
		}
	}
	if x := analysis.NonNilOnEntry(blk); x != nil {
		for i, a := range f.acqs {
			if a.def != nil && errOf(f.rd.DefsAt(x), a.def) {
				s[i] = false
			}
		}
	}
	for _, node := range blk.Nodes {
		f.process(node, s, rep)
	}
}

// errOf reports whether defs are all a sibling result of acquisition
// def's call (the err of b, err := p.Allocate(n)).
func errOf(defs []*analysis.Def, def *analysis.Def) bool {
	for _, d := range defs {
		if d.Node != def.Node || d.Var == def.Var {
			return false
		}
	}
	return len(defs) > 0
}

// process applies one block node's effect to s.
func (f *scope) process(node ast.Node, s []bool, rep func(token.Pos, string)) {
	info := f.pass.TypesInfo
	n := len(f.acqs)
	gens := f.gens[node]
	node = analysis.Header(node)
	nilCmp := analysis.NilComparisonIdents(node)
	consumed := make(map[*ast.Ident]bool)

	// release applies one call's releases. A deferred release
	// discharges the obligation without marking the value done: it
	// runs at function exit, so later uses stay legal.
	release := func(call *ast.CallExpr, deferred bool) {
		ids, match := f.released(call)
		for _, id := range ids {
			for _, d := range f.rd.DefsAt(id) {
				for _, i := range f.byDef[d] {
					a := f.acqs[i]
					if !match(a) {
						continue
					}
					consumed[id] = true
					s[i], s[3*n+i] = false, s[3*n+i] && !deferred
					if a.kind == pinned {
						continue
					}
					if rep != nil && s[n+i] {
						rep(call.Pos(), words[a.kind].double)
					}
					if rep != nil && s[2*n+i] {
						rep(call.Pos(), words[a.kind].retained)
					}
					s[n+i] = s[n+i] || !deferred
				}
			}
		}
	}

	// handleDefer covers a deferred release and deferred closures that
	// release captured values (matched by variable).
	handleDefer := func(def *ast.DeferStmt) {
		release(def.Call, true)
		lit, ok := ast.Unparen(def.Call.Fun).(*ast.FuncLit)
		if !ok {
			return
		}
		analysis.ForEachCall(lit.Body, func(call *ast.CallExpr) {
			ids, match := f.released(call)
			for _, id := range ids {
				v, _ := info.Uses[id].(*types.Var)
				for i, a := range f.acqs {
					if v != nil && a.v == v && match(a) {
						s[i], s[3*n+i] = false, false
					}
				}
			}
		})
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
						for i, a := range f.acqs {
							if a.v == v {
								s[i] = false
							}
						}
					}
				}
				return true
			})
			return false
		case *ast.CallExpr:
			release(x, false)
		case *ast.Ident:
			if consumed[x] || nilCmp[x] {
				return true
			}
			for _, d := range f.rd.DefsAt(x) {
				for _, i := range f.byDef[d] {
					if rep != nil && s[n+i] {
						rep(x.Pos(), words[f.acqs[i].kind].useAfter)
					}
					switch f.classifyUse(stack, x) {
					case useRetain:
						s[2*n+i] = true
					case useTransfer:
						s[i] = false
					}
				}
			}
		}
		return true
	})

	// Gen after kills, strong update: an acquisition or Pin resets its
	// bits, and is live unless a deferred release already covers it.
	for _, i := range gens {
		s[i], s[n+i], s[2*n+i] = s[3*n+i], false, false
	}
}

type useKind int

const (
	useNeutral useKind = iota
	useRetain
	useTransfer
)

// classifyUse decides what one occurrence of a tracked value does to
// its obligation. Field access, indexing, dereference, nil comparison
// and reassignment are neutral; a call argument retains or stays
// neutral depending on the callee; everything else (stores, returns,
// sends, composite literals, address-of, dynamic calls) transfers
// ownership.
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
