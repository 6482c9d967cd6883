// Package hotalloc enforces allocation-free hot paths (DESIGN.md
// invariant 10): a function annotated //gflink:hotpath — and every
// function it transitively calls through static, same-package calls —
// must not heap-allocate on any path.
//
// Allocation sites are detected lexically, per function body:
//
//   - make and new
//   - append (every append may grow its backing array; deliberate
//     amortized growth is waived with //gflink:allow-alloc)
//   - &T{...} composite literals whose value escapes the function
//     (assigned to a local used only through field selectors, nil
//     comparisons and reassignment it stays on the stack and is free)
//   - slice and map composite literals
//   - map-element assignment (may grow the table)
//   - non-constant string concatenation
//   - conversions between string and []byte/[]rune
//   - function literals and method values (closure allocation)
//   - interface conversions that box a non-pointer argument at a call
//   - calls to variadic functions with a non-empty, non-spread
//     argument list (the ...args slice)
//   - go statements and defer inside a loop body
//
// Calls compose interprocedurally: a same-package callee joins the hot
// set and is checked in place; a cross-package callee must carry an
// AllocFree fact (exported by this analyzer when it analyzed that
// package as a dependency) or belong to a small allowlist of known
// non-allocating runtime entry points (float32 bit casts and
// little-endian fixed-width loads/stores). Calls through function values
// or interface methods have unknown behavior and are reported. A
// //gflink:allow-alloc <reason> directive on (or above) the offending
// line waives one site or call — that is the sanctioned escape hatch
// for pool growth, error/cold branches and amortized reallocation —
// and a waived site does not stop the function from exporting
// AllocFree.
//
// A function declared without a body has its body in assembly, which
// reaches the Go heap only by calling into the runtime; the module's
// assembly bodies (the SSE2 and AVX2 KMeans assign groups and the CPUID
// and XGETBV reads) never do, so such a declaration counts as
// allocation-free. One that a //go:linkname directive binds to some
// other function stays unknown.
//
// Observability gates are recognized structurally: the body of an
// `if x.Enabled() { ... }` statement — where Enabled is any niladic
// method returning bool, the convention obs.Tracer and obs.Registry
// follow — is an observability-cold branch, so allocations inside it
// (attr slices, span storage) need no waiver. This is what makes the
// tracing-OFF path *provably* zero-alloc without sprinkling waivers
// over every span call site: allocation outside such a guard is still
// reported, so an unguarded attr-slice construction on a hot path is a
// finding, not a cost silently paid when tracing is off.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gflink/internal/analysis"
)

// AllocFree marks a function proven free of unwaived heap allocation,
// including everything it transitively calls.
type AllocFree struct{}

// AFact marks AllocFree as a fact type.
func (*AllocFree) AFact() {}

// Allocates marks a function that heap-allocates (directly or through
// a callee) on at least one path, with no waiver.
type Allocates struct{}

// AFact marks Allocates as a fact type.
func (*Allocates) AFact() {}

// Analyzer is the hotalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "hotalloc",
	Doc:       "//gflink:hotpath functions (and their transitive static callees) must not heap-allocate",
	Run:       run,
	FactTypes: []analysis.Fact{(*AllocFree)(nil), (*Allocates)(nil)},
}

// allowlist names stdlib functions trusted not to allocate on the
// caller's behalf, keyed by "pkgpath.ObjectKey".
var allowlist = map[string]bool{
	// Pure bit casts and fixed-width little-endian loads/stores back
	// the kernel bodies and the stream layer's packing loops.
	"math.Float32bits":                       true,
	"math.Float32frombits":                   true,
	"encoding/binary.littleEndian.Uint32":    true,
	"encoding/binary.littleEndian.Uint64":    true,
	"encoding/binary.littleEndian.PutUint32": true,
	"encoding/binary.littleEndian.PutUint64": true,
	// A compiler intrinsic (one MUL) that reduces the KMeans center
	// draw without a DIV.
	"math/bits.Mul64": true,
}

// site is one unwaived allocation inside a function body.
type site struct {
	pos  token.Pos
	what string
}

// edge is one unwaived static call site.
type edge struct {
	pos    token.Pos
	callee *types.Func
}

// fnScan is the lexical summary of one declared function.
type fnScan struct {
	obj   *types.Func
	decl  *ast.FuncDecl
	idx   map[string]map[int]bool
	sites []site
	edges []edge
	hot   bool // carries //gflink:hotpath
}

func run(pass *analysis.Pass) (interface{}, error) {
	var scans []*fnScan
	byObj := make(map[*types.Func]*fnScan)
	for _, f := range pass.Files {
		idx := analysis.DirectiveIndex(pass.Fset, f)
		linked := linknamed(f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || (fd.Body == nil && linked[fd.Name.Name]) {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sc := &fnScan{obj: obj, decl: fd, idx: idx,
				hot: analysis.DirectiveAt(idx, pass.Fset, "hotpath", fd.Pos())}
			if fd.Body != nil {
				scanBody(pass, sc)
			}
			scans = append(scans, sc)
			byObj[obj] = sc
		}
	}

	// Interprocedural fixpoint: a function allocates if it has an
	// unwaived local site or any unwaived call edge reaches allocation
	// (same-package callees through the worklist, cross-package callees
	// through AllocFree facts / the allowlist; unknown means allocates).
	allocating := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, sc := range scans {
			if allocating[sc.obj] {
				continue
			}
			dirty := len(sc.sites) > 0
			for _, e := range sc.edges {
				if dirty {
					break
				}
				if local, ok := byObj[e.callee]; ok {
					dirty = allocating[local.obj]
				} else {
					dirty = !externClean(pass, e.callee)
				}
			}
			if dirty {
				allocating[sc.obj] = true
				changed = true
			}
		}
	}
	for _, sc := range scans {
		if analysis.ObjectKey(sc.obj) == "" {
			continue
		}
		if allocating[sc.obj] {
			pass.ExportObjectFact(sc.obj, &Allocates{})
		} else {
			pass.ExportObjectFact(sc.obj, &AllocFree{})
		}
	}

	// Hot set: annotated roots plus transitive same-package callees
	// over unwaived edges (a waived call is a declared cold branch and
	// does not spread hotness).
	hot := make(map[*types.Func]bool)
	var grow func(sc *fnScan)
	grow = func(sc *fnScan) {
		if hot[sc.obj] {
			return
		}
		hot[sc.obj] = true
		for _, e := range sc.edges {
			if callee, ok := byObj[e.callee]; ok {
				grow(callee)
			}
		}
	}
	for _, sc := range scans {
		if sc.hot {
			grow(sc)
		}
	}

	for _, sc := range scans {
		if !hot[sc.obj] {
			continue
		}
		for _, s := range sc.sites {
			pass.Reportf(s.pos, "%s in an allocation-free hot path (invariant 10; //gflink:allow-alloc <reason> if this is a deliberate cold branch)", s.what)
		}
		for _, e := range sc.edges {
			if _, ok := byObj[e.callee]; ok {
				continue // in the hot set; its sites are reported in place
			}
			if !externClean(pass, e.callee) {
				pass.Reportf(e.pos, "hot path calls %s, which is not proven allocation-free (invariant 10; //gflink:allow-alloc <reason> if this call is a deliberate cold branch)", e.callee.FullName())
			}
		}
	}
	return nil, nil
}

// linknamed returns the local names f's //go:linkname directives bind.
func linknamed(f *ast.File) map[string]bool {
	out := make(map[string]bool)
	for _, g := range f.Comments {
		for _, c := range g.List {
			if rest, ok := strings.CutPrefix(c.Text, "//go:linkname "); ok {
				if name, _, _ := strings.Cut(strings.TrimSpace(rest), " "); name != "" {
					out[name] = true
				}
			}
		}
	}
	return out
}

// externClean reports whether a callee declared outside this package is
// trusted not to allocate: allowlisted, or carrying an AllocFree fact.
func externClean(pass *analysis.Pass, fn *types.Func) bool {
	if fn.Pkg() != nil && allowlist[fn.Pkg().Path()+"."+analysis.ObjectKey(fn)] {
		return true
	}
	return pass.ImportObjectFact(fn, &AllocFree{})
}

// scanBody fills sc.sites and sc.edges from the function body. Sites
// and edges under a //gflink:allow-alloc line are dropped here, so they
// feed neither diagnostics nor the fixpoint. Function literal bodies
// are not scanned (the literal itself is the allocation; its body runs
// on some other path).
func scanBody(pass *analysis.Pass, sc *fnScan) {
	info := pass.TypesInfo
	cold := coldGuardRanges(info, sc.decl.Body)
	waived := func(pos token.Pos) bool {
		for _, r := range cold {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return analysis.DirectiveAt(sc.idx, pass.Fset, "allow-alloc", pos)
	}
	addSite := func(pos token.Pos, what string) {
		if !waived(pos) {
			sc.sites = append(sc.sites, site{pos, what})
		}
	}
	stackLocal := stackLocalLits(pass, sc.decl.Body)

	var stack []ast.Node
	ast.Inspect(sc.decl.Body, func(n ast.Node) (descend bool) {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend = true
		defer func() {
			if descend {
				stack = append(stack, n)
			}
		}()
		switch n := n.(type) {
		case *ast.FuncLit:
			addSite(n.Pos(), "function literal allocates a closure")
			return false
		case *ast.GoStmt:
			addSite(n.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			for _, a := range stack {
				switch a.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					addSite(n.Pos(), "defer inside a loop allocates its record")
					return
				}
			}
		case *ast.CallExpr:
			scanCall(pass, sc, n, addSite, waived)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && !stackLocal[n] {
					addSite(n.Pos(), "escaping &composite literal allocates")
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				addSite(n.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				addSite(n.Pos(), "map literal allocates")
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
					if _, isMap := info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
						addSite(l.Pos(), "map-element assignment may grow the table")
					}
				}
			}
			if n.Tok == token.ADD_ASSIGN && isStringType(info.TypeOf(n.Lhs[0])) {
				addSite(n.Pos(), "string concatenation allocates")
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if _, isMap := info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
					addSite(n.Pos(), "map-element assignment may grow the table")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				if tv := info.Types[n]; tv.Value == nil { // non-constant
					addSite(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.SelectorExpr:
			// A method value (selection not immediately called)
			// captures its receiver in a closure.
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !isCallFun(stack, n) {
				addSite(n.Pos(), "method value allocates a closure over its receiver")
			}
		}
		return true
	})
}

// coldGuardRanges collects the source ranges of if-bodies guarded by
// an observability Enabled() gate. Sites and call edges inside such a
// body are treated as waived: the branch only runs with tracing or
// metrics enabled, and the invariant being enforced is that the
// *disabled* path is allocation-free.
func coldGuardRanges(info *types.Info, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok && isEnabledGuard(info, ifs.Cond) {
			out = append(out, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return out
}

// isEnabledGuard reports whether cond is (or conjoins, via &&) a call
// to a niladic method named Enabled returning bool.
func isEnabledGuard(info *types.Info, cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return isEnabledGuard(info, e.X) || isEnabledGuard(info, e.Y)
		}
	case *ast.CallExpr:
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Enabled" || len(e.Args) != 0 {
			return false
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			return false
		}
		b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Bool
	}
	return false
}

// scanCall classifies one call expression: builtin allocators,
// allocating conversions, boxing and variadic argument slices, and the
// static call edge itself.
func scanCall(pass *analysis.Pass, sc *fnScan, call *ast.CallExpr, addSite func(token.Pos, string), waived func(token.Pos) bool) {
	info := pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		scanConversion(info, call, addSite)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				addSite(call.Pos(), "make allocates")
			case "new":
				addSite(call.Pos(), "new allocates")
			case "append":
				addSite(call.Pos(), "append may grow its backing array")
			}
			return
		}
	}
	callee := analysis.StaticCallee(info, call)
	if callee == nil {
		addSite(call.Pos(), "call through a function value or interface method has unknown allocation behavior")
		return
	}
	// Canonicalize instantiated generic functions/methods to their
	// declaration so local lookups and facts line up.
	callee = callee.Origin()
	if sig, ok := callee.Type().(*types.Signature); ok {
		if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
			addSite(call.Pos(), "non-empty variadic argument list allocates a slice")
		}
		scanBoxing(info, call, sig, addSite)
	}
	if !waived(call.Pos()) {
		sc.edges = append(sc.edges, edge{call.Pos(), callee})
	}
}

// scanConversion flags conversions that copy: string <-> byte/rune
// slices, and boxing conversions to interface types.
func scanConversion(info *types.Info, call *ast.CallExpr, addSite func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	to := info.TypeOf(call.Fun)
	from := info.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return
	}
	switch {
	case isStringType(to) && !isStringType(from):
		addSite(call.Pos(), "conversion to string allocates")
	case !isStringType(to) && isStringType(from):
		if _, slice := to.Underlying().(*types.Slice); slice {
			addSite(call.Pos(), "conversion of a string to a slice allocates")
		}
	case types.IsInterface(to.Underlying()) && boxes(from):
		addSite(call.Pos(), "interface conversion boxes a non-pointer value")
	}
}

// scanBoxing flags arguments implicitly converted to interface
// parameters when the concrete value does not fit the interface word.
func scanBoxing(info *types.Info, call *ast.CallExpr, sig *types.Signature, addSite func(token.Pos, string)) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && !call.Ellipsis.IsValid():
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case params.Len() > 0:
			pt = params.At(params.Len() - 1).Type()
		default:
			continue
		}
		if types.IsInterface(pt.Underlying()) && boxes(info.TypeOf(arg)) {
			addSite(arg.Pos(), "interface conversion boxes a non-pointer value")
		}
	}
}

// boxes reports whether converting a value of type t to an interface
// heap-allocates: true for concrete non-pointer-shaped types.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Signature, *types.Interface, *types.Map:
		return false
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.UnsafePointer
	}
	return true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isCallFun reports whether sel is the Fun of its parent CallExpr
// (i.e. the selection is immediately invoked, not a method value).
func isCallFun(stack []ast.Node, sel *ast.SelectorExpr) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.CallExpr:
			return ast.Unparen(p.Fun) == sel
		default:
			return false
		}
	}
	return false
}

// stackLocalLits finds &T{...} expressions bound by := to a local
// whose every use is a field selector, a nil comparison, a deref, or a
// reassignment — those never escape, so the compiler keeps them on the
// stack. Any other use (call argument, method call, return, store,
// capture, address-of) counts as escaping.
func stackLocalLits(pass *analysis.Pass, body *ast.BlockStmt) map[*ast.UnaryExpr]bool {
	info := pass.TypesInfo
	cands := make(map[*types.Var]*ast.UnaryExpr)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		a, ok := n.(*ast.AssignStmt)
		if !ok || a.Tok != token.DEFINE || len(a.Lhs) != len(a.Rhs) {
			return true
		}
		for i, r := range a.Rhs {
			u, ok := ast.Unparen(r).(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				continue
			}
			if _, ok := ast.Unparen(u.X).(*ast.CompositeLit); !ok {
				continue
			}
			if id, ok := a.Lhs[i].(*ast.Ident); ok {
				if v, ok := info.Defs[id].(*types.Var); ok {
					cands[v] = u
				}
			}
		}
		return true
	})
	out := make(map[*ast.UnaryExpr]bool, len(cands))
	for v, u := range cands {
		if !escapesLocally(info, body, v) {
			out[u] = true
		}
	}
	return out
}

// escapesLocally reports whether any use of v leaks the pointer out of
// plain stack usage.
func escapesLocally(info *types.Info, body *ast.BlockStmt, v *types.Var) bool {
	escaped := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if escaped {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			if !safeUse(info, stack, id) || inFuncLit(stack) {
				escaped = true
			}
		}
		stack = append(stack, n)
		return true
	})
	return escaped
}

// safeUse reports whether this identifier occurrence keeps the pointer
// local: x.f field access (read or written), *x deref, x == nil / x !=
// nil, or x on the left of an assignment.
func safeUse(info *types.Info, stack []ast.Node, id *ast.Ident) bool {
	if len(stack) == 0 {
		return false
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr:
		if p.X != id {
			return false
		}
		// A method call may retain its receiver; only plain field
		// selections are safe.
		if sel, ok := info.Selections[p]; ok && sel.Kind() != types.FieldVal {
			return false
		}
		return true
	case *ast.StarExpr:
		return true
	case *ast.BinaryExpr:
		return p.Op == token.EQL || p.Op == token.NEQ
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == id {
				return true
			}
		}
		return false
	}
	return false
}

func inFuncLit(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}
