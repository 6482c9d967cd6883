// Package clockflow enforces DESIGN.md invariant 8 flow-sensitively:
// every value reaching an obs timestamp argument must originate from a
// virtual-clock reading ((*vclock.Clock).Now), never from wall-clock
// time or a bare literal.
//
// The wallclock analyzer already bans time.Now lexically, but a ban on
// the call site says nothing about where a timestamp argument's value
// *came from*: `start := 5 * time.Millisecond; tr.Record(..., start,
// ...)` records a constant that no schedule produced, and a helper that
// forwards its argument into Record moves the obligation to its callers
// — across package boundaries. clockflow runs a taint analysis over
// each function's CFG and reaching definitions: timestamp sinks are the
// obs recording methods (Tracer.Record and Tracer.RecordGWork — fixed
// roots), plus any function through
// which a parameter provably flows into a sink. Those derived sinks are
// exported as TimestampSink facts, so the check follows helpers across
// packages exactly like bufescape's fact flow. Functions
// whose every return value is vclock-derived export VClockSource and
// count as clock readings at their call sites.
//
// The lattice per value is {vclock, wall, const, unknown, param}:
// arithmetic joins its operands (vclock + const stays vclock — offsets
// from a clock reading are the normal span idiom), struct-field reads
// and opaque calls are unknown (trusted: their producers are checked at
// their own sinks), and a sink argument is reported when its value is
// wall-derived on some path, or a pure compile-time constant.
//
// Test files are exempt (fixtures pin literal timestamps by design).
// Suppress a single site with //gflink:vclock-derived.
package clockflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"gflink/internal/analysis"
)

// TimestampSink marks a function some of whose parameters flow into an
// obs timestamp argument; callers must pass vclock-derived values at
// those indices.
type TimestampSink struct{ Indices []int }

// AFact marks TimestampSink as a fact type.
func (*TimestampSink) AFact() {}

// VClockSource marks a function whose every return value derives from
// a virtual-clock reading.
type VClockSource struct{}

// AFact marks VClockSource as a fact type.
func (*VClockSource) AFact() {}

// Analyzer implements the clockflow check.
var Analyzer = &analysis.Analyzer{
	Name:      "clockflow",
	Doc:       "values reaching obs timestamp arguments must originate from vclock readings, never wall-clock time or literals",
	Run:       run,
	FactTypes: []analysis.Fact{(*TimestampSink)(nil), (*VClockSource)(nil)},
}

const (
	obsPath    = "gflink/internal/obs"
	vclockPath = "gflink/internal/vclock"
)

// rootSinks are the obs recording methods and their timestamp
// parameter indices — the ground truth the fact propagation grows from.
var rootSinks = map[string][]int{
	"Tracer.Record":      {3, 4},
	"Tracer.RecordGWork": {3, 4},
}

// wallFuncs are time-package functions whose results are wall-derived.
var wallFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// taint is the join-semilattice element for one value.
type taint struct {
	wall, vclock, konst, other bool
	params                     map[int]bool
}

func (t *taint) join(o taint) {
	t.wall = t.wall || o.wall
	t.vclock = t.vclock || o.vclock
	t.konst = t.konst || o.konst
	t.other = t.other || o.other
	for i := range o.params {
		if t.params == nil {
			t.params = make(map[int]bool)
		}
		t.params[i] = true
	}
}

func run(pass *analysis.Pass) (interface{}, error) {
	info := pass.TypesInfo
	var scopes []*analysis.FuncScope
	for _, sc := range analysis.FuncScopes(pass) {
		if !strings.HasSuffix(pass.Position(sc.Body.Pos()).Filename, "_test.go") {
			scopes = append(scopes, sc)
		}
	}

	st := &state{
		pass:  pass,
		sinks: make(map[*types.Func]map[int]bool),
		vsrc:  make(map[*types.Func]bool),
	}

	// Summary fixpoint: derived sinks and vclock sources feed each
	// other within the package (a helper may wrap a helper), so iterate
	// until neither set grows.
	for changed := true; changed; {
		changed = false
		for _, sc := range scopes {
			if sc.Obj == nil {
				continue // literals carry no exportable obligations
			}
			analysis.ForEachCall(sc.Body, func(call *ast.CallExpr) {
				for _, i := range st.calleeSinks(analysis.StaticCallee(info, call)) {
					if i >= len(call.Args) {
						continue
					}
					t := st.classify(sc, call.Args[i], nil)
					for p := range t.params {
						if st.sinks[sc.Obj] == nil {
							st.sinks[sc.Obj] = make(map[int]bool)
						}
						if !st.sinks[sc.Obj][p] {
							st.sinks[sc.Obj][p] = true
							changed = true
						}
					}
				}
			})
			if !st.vsrc[sc.Obj] && sc.Sig != nil && sc.Sig.Results().Len() > 0 && st.returnsVClock(sc) {
				st.vsrc[sc.Obj] = true
				changed = true
			}
		}
	}

	// Report pass.
	for _, sc := range scopes {
		analysis.ForEachCall(sc.Body, func(call *ast.CallExpr) {
			for _, i := range st.calleeSinks(analysis.StaticCallee(info, call)) {
				if i >= len(call.Args) {
					continue
				}
				arg := call.Args[i]
				t := st.classify(sc, arg, nil)
				if !t.wall && !(t.konst && !t.vclock && !t.other && len(t.params) == 0) {
					continue
				}
				if analysis.DirectiveAt(sc.Idx, pass.Fset, "vclock-derived", arg.Pos()) ||
					analysis.DirectiveAt(sc.Idx, pass.Fset, "vclock-derived", call.Pos()) {
					continue
				}
				if t.wall {
					pass.Reportf(arg.Pos(), "obs timestamp derives from wall-clock time on some path; every timestamp must originate from (*vclock.Clock).Now")
				} else {
					pass.Reportf(arg.Pos(), "obs timestamp is a compile-time constant, not a clock reading; timestamps must originate from (*vclock.Clock).Now")
				}
			}
		})
	}

	// Export summaries for dependent packages.
	for fn, idxs := range st.sinks {
		out := make([]int, 0, len(idxs))
		for i := range idxs {
			out = append(out, i)
		}
		sort.Ints(out)
		pass.ExportObjectFact(fn, &TimestampSink{Indices: out})
	}
	for fn, ok := range st.vsrc {
		if ok {
			pass.ExportObjectFact(fn, &VClockSource{})
		}
	}
	return nil, nil
}

type state struct {
	pass  *analysis.Pass
	sinks map[*types.Func]map[int]bool
	vsrc  map[*types.Func]bool
}

// calleeSinks resolves the timestamp-parameter indices of a call
// target: fixed obs roots, package-local summaries, or imported facts.
func (st *state) calleeSinks(fn *types.Func) []int {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if fn.Pkg().Path() == obsPath {
		if idxs, ok := rootSinks[analysis.ObjectKey(fn)]; ok {
			return idxs
		}
	}
	if fn.Pkg() == st.pass.Pkg {
		if local, ok := st.sinks[fn]; ok {
			out := make([]int, 0, len(local))
			for i := range local {
				out = append(out, i)
			}
			sort.Ints(out)
			return out
		}
		return nil
	}
	var fact TimestampSink
	if st.pass.ImportObjectFact(fn, &fact) {
		return fact.Indices
	}
	return nil
}

// isVClockCall reports whether a static callee is a virtual-clock
// reading: the vclock root or a known VClockSource.
func (st *state) isVClockCall(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == vclockPath && analysis.ObjectKey(fn) == "Clock.Now" {
		return true
	}
	if fn.Pkg() == st.pass.Pkg {
		return st.vsrc[fn]
	}
	var fact VClockSource
	return st.pass.ImportObjectFact(fn, &fact)
}

// returnsVClock reports whether every return value of the scope
// classifies as vclock-derived (and nothing else).
func (st *state) returnsVClock(sc *analysis.FuncScope) bool {
	found := false
	ok := true
	forEachReturn(sc.Body, func(ret *ast.ReturnStmt) {
		if len(ret.Results) == 0 {
			ok = false // named results assigned elsewhere: too opaque
			return
		}
		for _, e := range ret.Results {
			t := st.classify(sc, e, nil)
			if !t.vclock || t.wall || t.other || t.konst || len(t.params) > 0 {
				ok = false
			}
		}
		found = true
	})
	return found && ok
}

// classify computes the taint of one expression in a scope. visited
// guards against definition cycles (loop-carried values contribute
// nothing on the back edge).
func (st *state) classify(sc *analysis.FuncScope, e ast.Expr, visited map[*analysis.Def]bool) taint {
	info := st.pass.TypesInfo
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return taint{konst: true}
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
			t := st.classify(sc, e.X, visited)
			t.join(st.classify(sc, e.Y, visited))
			return t
		}
		return taint{other: true}
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return st.classify(sc, e.X, visited)
		}
		return taint{other: true}
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			if len(e.Args) == 1 {
				return st.classify(sc, e.Args[0], visited) // conversion
			}
			return taint{other: true}
		}
		fn := analysis.StaticCallee(info, e)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallFuncs[fn.Name()] {
			return taint{wall: true}
		}
		if st.isVClockCall(fn) {
			return taint{vclock: true}
		}
		return taint{other: true}
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		if v == nil || !sc.RD.Tracked(v) {
			return taint{other: true}
		}
		defs := sc.RD.DefsAt(e)
		if defs == nil {
			return taint{other: true}
		}
		var t taint
		for _, d := range defs {
			t.join(st.classifyDef(sc, d, visited))
		}
		return t
	}
	return taint{other: true}
}

func (st *state) classifyDef(sc *analysis.FuncScope, d *analysis.Def, visited map[*analysis.Def]bool) taint {
	if visited[d] {
		return taint{} // cycle: the other defs decide
	}
	if visited == nil {
		visited = make(map[*analysis.Def]bool)
	}
	visited[d] = true
	defer delete(visited, d)
	switch d.Kind {
	case analysis.DefParam:
		if sc.Sig != nil {
			params := sc.Sig.Params()
			for i := 0; i < params.Len(); i++ {
				if params.At(i) == d.Var {
					return taint{params: map[int]bool{i: true}}
				}
			}
		}
		return taint{other: true} // receiver or named result
	case analysis.DefZero:
		return taint{konst: true}
	case analysis.DefAssign:
		if d.Multi || d.RHS == nil {
			return taint{other: true}
		}
		return st.classify(sc, d.RHS, visited)
	case analysis.DefModify:
		// The previous value also flows in; treat it as unknown so a
		// loop accumulator neither proves nor damns the result.
		t := taint{other: true}
		if d.RHS != nil {
			t.join(st.classify(sc, d.RHS, visited))
		}
		return t
	}
	return taint{other: true}
}

// forEachReturn visits every return statement in a body, excluding
// nested function literals.
func forEachReturn(body *ast.BlockStmt, fn func(*ast.ReturnStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			fn(ret)
		}
		return true
	})
}
