// Package counterkey enforces the metric-name half of DESIGN.md
// invariant 8: every counter name passed to (*obs.Registry).Counter
// (the registry's only way to name a counter) must be a compile-time
// constant format string that matches the metrics grammar, so dashboards and the repository
// self-checks can enumerate every counter the simulator can ever emit
// by reading the source.
//
// The grammar mirrors the namespaces the obs registry documents:
//
//	cache.{hits|misses|inserts|rejects|stop|evictions}[.gpu<N>]
//	sched.{direct|pooled|steals}[.w<N>]
//	xfer.{h2d|d2h}.bytes.gpu<N>
//	mem.{demotions|promotions|spills|reloads}[.gpu<N>]
//	stream.{records|batches|windows|blockedns|grants|depthmax}[.s<N>]
//
// A key expression is evaluated symbolically into a pattern: string
// constants and constant-format fmt.Sprintf calls contribute literal
// text with one wildcard per verb; concatenation concatenates.
// Literal dot-separated segments are validated against the grammar up
// to the first wildcarded segment (a prefix of a valid key is valid —
// helpers routinely append the worker or device suffix). A key whose
// *root* is a wildcard is only acceptable when that wildcard is a
// parameter of the enclosing function: the function then exports a
// CounterKey fact and the obligation moves to its callers, exactly
// like clockflow's TimestampSink flow. Any other dynamic root is
// reported as not compile-time constant.
//
// Reads of unexported struct fields are resolved through field
// provenance: hot paths precompute their counter names once (a
// fmt.Sprintf per registration is an allocation the hotalloc analyzer
// forbids), so a field read is an acceptable key exactly when every
// package-local assignment to that field — plain assignments and
// composite-literal entries alike — evaluates to a grammar-valid
// pattern. The counters stay statically enumerable: the enumeration
// just reads the field's initializers instead of the Counter call.
//
// Test files are exempt (they probe the registry with throwaway
// names). Suppress a single site with //gflink:counter-key.
package counterkey

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"gflink/internal/analysis"
)

// CounterKey marks a function some of whose parameters form the root
// of a counter name passed to the obs registry; callers must pass
// grammar-conforming constant keys (or key prefixes) at those indices.
type CounterKey struct{ Indices []int }

// AFact marks CounterKey as a fact type.
func (*CounterKey) AFact() {}

// Analyzer implements the counterkey check.
var Analyzer = &analysis.Analyzer{
	Name:      "counterkey",
	Doc:       "counter names passed to the obs registry must be compile-time constant format strings matching the metrics grammar",
	Run:       run,
	FactTypes: []analysis.Fact{(*CounterKey)(nil)},
}

const obsPath = "gflink/internal/obs"

// wildcard stands in for one dynamically-formatted region of a key
// pattern. NUL cannot appear in a sane metric name.
const wildcard = "\x00"

// grammar maps each namespace root to the matchers of its remaining
// segments, in order. A key may stop early (prefix) but not run long.
var grammar = map[string][]func(string) bool{
	"cache":  {oneOf("hits", "misses", "inserts", "rejects", "stop", "evictions"), numbered("gpu")},
	"sched":  {oneOf("direct", "pooled", "steals"), numbered("w")},
	"xfer":   {oneOf("h2d", "d2h"), oneOf("bytes"), numbered("gpu")},
	"mem":    {oneOf("demotions", "promotions", "spills", "reloads"), numbered("gpu")},
	"stream": {oneOf("records", "batches", "windows", "blockedns", "grants", "depthmax"), numbered("s")},
}

func oneOf(names ...string) func(string) bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return func(s string) bool { return set[s] }
}

// numbered matches prefix followed by one or more decimal digits
// (gpu0, w12). The segment may also be fully wildcarded by formatting.
func numbered(prefix string) func(string) bool {
	return func(s string) bool {
		rest, ok := strings.CutPrefix(s, prefix)
		if !ok || rest == "" {
			return false
		}
		for _, c := range rest {
			if c < '0' || c > '9' {
				return false
			}
		}
		return true
	}
}

// part is one symbolic piece of a key expression: literal text, or a
// wildcard whose producing expression is kept for root classification.
type part struct {
	lit  string
	expr ast.Expr // non-nil marks a wildcard
}

func run(pass *analysis.Pass) (interface{}, error) {
	info := pass.TypesInfo
	st := &state{
		pass:     pass,
		keyed:    make(map[*types.Func]map[int]bool),
		fields:   make(map[*types.Var][]ast.Expr),
		visiting: make(map[*types.Var]bool),
	}
	inTest := func(n ast.Node) bool {
		return strings.HasSuffix(pass.Position(n.Pos()).Filename, "_test.go")
	}
	for _, f := range pass.Files {
		if !inTest(f) {
			collectFieldInits(info, f, st.fields)
		}
	}
	var scopes []*analysis.FuncScope
	for _, sc := range analysis.FuncScopes(pass) {
		if !inTest(sc.Body) {
			scopes = append(scopes, sc)
		}
	}

	// Obligation fixpoint: a function whose parameter roots a key at a
	// keyed call site becomes keyed itself, so its callers are checked.
	for changed := true; changed; {
		changed = false
		for _, sc := range scopes {
			if sc.Obj == nil {
				continue
			}
			analysis.ForEachCall(sc.Body, func(call *ast.CallExpr) {
				for _, i := range st.calleeKeyed(analysis.StaticCallee(info, call)) {
					if i >= len(call.Args) {
						continue
					}
					parts := st.eval(sc, call.Args[i], nil)
					if len(parts) == 0 || parts[0].expr == nil {
						continue
					}
					p, ok := st.rootParam(sc, parts[0].expr)
					if !ok {
						continue
					}
					if st.keyed[sc.Obj] == nil {
						st.keyed[sc.Obj] = make(map[int]bool)
					}
					if !st.keyed[sc.Obj][p] {
						st.keyed[sc.Obj][p] = true
						changed = true
					}
				}
			})
		}
	}

	// Report pass.
	for _, sc := range scopes {
		analysis.ForEachCall(sc.Body, func(call *ast.CallExpr) {
			for _, i := range st.calleeKeyed(analysis.StaticCallee(info, call)) {
				if i >= len(call.Args) {
					continue
				}
				arg := call.Args[i]
				parts := st.eval(sc, arg, nil)
				msg := st.check(sc, parts)
				if msg == "" {
					continue
				}
				if analysis.DirectiveAt(sc.Idx, pass.Fset, "counter-key", arg.Pos()) ||
					analysis.DirectiveAt(sc.Idx, pass.Fset, "counter-key", call.Pos()) {
					continue
				}
				pass.Reportf(arg.Pos(), "%s", msg)
			}
		})
	}

	// Export obligations for dependent packages.
	for fn, idxs := range st.keyed {
		out := make([]int, 0, len(idxs))
		for i := range idxs {
			out = append(out, i)
		}
		sort.Ints(out)
		pass.ExportObjectFact(fn, &CounterKey{Indices: out})
	}
	return nil, nil
}

type state struct {
	pass  *analysis.Pass
	keyed map[*types.Func]map[int]bool
	// fields maps a struct field to every package-local expression
	// assigned to it; a nil entry poisons the field (assigned from a
	// multi-valued call, so its contents are not enumerable).
	fields   map[*types.Var][]ast.Expr
	visiting map[*types.Var]bool // field-provenance cycle guard
}

// collectFieldInits records every assignment to a struct field in f:
// plain (possibly multi-)assignments, keyed composite-literal entries,
// and positional struct literals.
func collectFieldInits(info *types.Info, f *ast.File, fields map[*types.Var][]ast.Expr) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				s, ok := info.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					continue
				}
				fv, ok := s.Obj().(*types.Var)
				if !ok {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					fields[fv] = append(fields[fv], n.Rhs[i])
				} else {
					fields[fv] = append(fields[fv], nil)
				}
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			styp, ok := tv.Type.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					id, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if fv, ok := info.Uses[id].(*types.Var); ok {
						fields[fv] = append(fields[fv], kv.Value)
					}
				} else if i < styp.NumFields() {
					fields[styp.Field(i)] = append(fields[styp.Field(i)], el)
				}
			}
		}
		return true
	})
}

// fieldParts resolves a read of a struct field into a key pattern via
// field provenance. It returns nil when the field is not resolvable
// this way (exported, foreign, or never assigned locally) — the caller
// then treats the read as an opaque wildcard. When every recorded
// assignment evaluates to an acceptable pattern, the first one stands
// in for the read; otherwise the first failing assignment does, so the
// use site reports the underlying defect.
func (st *state) fieldParts(sc *analysis.FuncScope, sel *ast.SelectorExpr) []part {
	s, ok := st.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	fv, ok := s.Obj().(*types.Var)
	if !ok || fv.Pkg() != st.pass.Pkg || fv.Exported() || st.visiting[fv] {
		return nil
	}
	inits := st.fields[fv]
	if len(inits) == 0 {
		return nil
	}
	st.visiting[fv] = true
	defer delete(st.visiting, fv)
	var good []part
	for _, init := range inits {
		if init == nil {
			return []part{{expr: sel}}
		}
		parts := st.eval(sc, init, nil)
		if st.check(sc, parts) != "" {
			return parts
		}
		if good == nil {
			good = parts
		}
	}
	return good
}

// calleeKeyed resolves the key-parameter indices of a call target:
// the Registry.Counter root, package-local obligations, or imported facts.
func (st *state) calleeKeyed(fn *types.Func) []int {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if fn.Pkg().Path() == obsPath {
		if analysis.ObjectKey(fn) == "Registry.Counter" {
			return []int{0}
		}
	}
	if fn.Pkg() == st.pass.Pkg {
		local := st.keyed[fn]
		out := make([]int, 0, len(local))
		for i := range local {
			out = append(out, i)
		}
		sort.Ints(out)
		return out
	}
	var fact CounterKey
	if st.pass.ImportObjectFact(fn, &fact) {
		return fact.Indices
	}
	return nil
}

// check validates an evaluated key pattern. It returns a diagnostic
// message, or "" when the pattern is acceptable (possibly by moving
// the obligation to callers via the fixpoint above).
func (st *state) check(sc *analysis.FuncScope, parts []part) string {
	if len(parts) == 0 {
		return "counter name is not a compile-time constant format string; counter keys must be statically enumerable"
	}
	if parts[0].expr != nil {
		if _, ok := st.rootParam(sc, parts[0].expr); ok {
			return "" // callers carry the obligation via the CounterKey fact
		}
		return "counter name is not a compile-time constant format string; counter keys must be statically enumerable"
	}
	var b strings.Builder
	for _, p := range parts {
		if p.expr != nil {
			b.WriteString(wildcard)
		} else {
			b.WriteString(p.lit)
		}
	}
	pattern := b.String()
	segs := strings.Split(pattern, ".")
	if strings.Contains(segs[0], wildcard) {
		return "" // mixed-literal root: dynamic suffix within the first segment
	}
	matchers, ok := grammar[segs[0]]
	if !ok {
		return badKey(pattern)
	}
	for i, seg := range segs[1:] {
		if strings.Contains(seg, wildcard) {
			return "" // formatted tail: trusted from here on
		}
		if i >= len(matchers) || !matchers[i](seg) {
			return badKey(pattern)
		}
	}
	return ""
}

func badKey(pattern string) string {
	display := strings.ReplaceAll(pattern, wildcard, "*")
	return "counter name \"" + display + "\" does not match the metrics grammar (cache.*, sched.*, xfer.*, mem.*, stream.*); see DESIGN.md invariant 8"
}

// rootParam reports whether an expression is (transitively) a read of
// one of the enclosing function's parameters, and which one.
func (st *state) rootParam(sc *analysis.FuncScope, e ast.Expr) (int, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || sc.Sig == nil {
		return 0, false
	}
	v, _ := st.pass.TypesInfo.Uses[id].(*types.Var)
	if v == nil || !sc.RD.Tracked(v) {
		return 0, false
	}
	defs := sc.RD.DefsAt(id)
	if len(defs) == 0 {
		return 0, false
	}
	for _, d := range defs {
		if d.Kind != analysis.DefParam {
			return 0, false
		}
	}
	params := sc.Sig.Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == v {
			return i, true
		}
	}
	return 0, false
}

// eval symbolically evaluates a key expression into literal/wildcard
// parts. visited guards definition cycles.
func (st *state) eval(sc *analysis.FuncScope, e ast.Expr, visited map[*analysis.Def]bool) []part {
	info := st.pass.TypesInfo
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return []part{{lit: constant.StringVal(tv.Value)}}
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return append(st.eval(sc, e.X, visited), st.eval(sc, e.Y, visited)...)
		}
	case *ast.CallExpr:
		fn := analysis.StaticCallee(info, e)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Name() == "Sprintf" && len(e.Args) > 0 {
			if tv, ok := info.Types[e.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				return sprintfParts(constant.StringVal(tv.Value), e.Args[1:])
			}
		}
	case *ast.SelectorExpr:
		if parts := st.fieldParts(sc, e); parts != nil {
			return parts
		}
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		if v == nil || !sc.RD.Tracked(v) {
			return []part{{expr: e}}
		}
		defs := sc.RD.DefsAt(e)
		if len(defs) == 1 && defs[0].Kind == analysis.DefAssign && !defs[0].Multi && defs[0].RHS != nil {
			d := defs[0]
			if visited[d] {
				return []part{{expr: e}}
			}
			if visited == nil {
				visited = make(map[*analysis.Def]bool)
			}
			visited[d] = true
			defer delete(visited, d)
			return st.eval(sc, d.RHS, visited)
		}
		return []part{{expr: e}}
	}
	return []part{{expr: e}}
}

// sprintfParts splits a constant format string into literal chunks
// with one wildcard per verb, pairing verbs with their arguments.
func sprintfParts(format string, args []ast.Expr) []part {
	var parts []part
	var lit strings.Builder
	arg := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			lit.WriteByte(c)
			continue
		}
		if i+1 < len(format) && format[i+1] == '%' {
			lit.WriteByte('%')
			i++
			continue
		}
		// Consume flags/width/precision up to the verb letter.
		j := i + 1
		for j < len(format) && !isVerbLetter(format[j]) {
			j++
		}
		i = j
		if lit.Len() > 0 {
			parts = append(parts, part{lit: lit.String()})
			lit.Reset()
		}
		w := part{}
		if arg < len(args) {
			w.expr = args[arg]
		} else {
			w.expr = ast.NewIdent("_") // malformed format: plain wildcard
		}
		arg++
		parts = append(parts, w)
	}
	if lit.Len() > 0 {
		parts = append(parts, part{lit: lit.String()})
	}
	return parts
}

func isVerbLetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
