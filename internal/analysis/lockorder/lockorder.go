// Package lockorder checks the scheduler's locking discipline with one
// source-order walk of every function body, tracking the set of held
// sync mutexes. It reports two deadlock classes that `go test -race`
// only catches if the fatal interleaving happens to run.
//
// Blocking under a lock. Under the virtual clock, a process that
// blocks on Queue.Get / Semaphore.Acquire / Clock.Sleep while holding a
// mutex prevents the process that would wake it from ever taking that
// mutex — but because the clock serializes execution, the schedule that
// triggers it may never occur on the test machine while occurring
// deterministically on another. Per-deployment state (GStreamManager,
// GMemoryManager, gpu.Device, ...) has no mutex at all, since the clock
// runs one process at a time; the locks left are process-global
// registries. The walk reports every blocking vclock/membuf call made
// while any mutex is held, local mutexes included (matched by the
// receiver's expression text).
//
// Lock order cycles. The walk also builds a whole-program
// lock-acquisition graph. Locks are identified structurally, not by
// instance: a mutex field is "pkgpath.Type.field", a package-level
// mutex is "pkgpath.var", and a type that embeds its mutex is
// "pkgpath.Type"; local mutexes have no identity and stay out of the
// graph. Acquiring L2 while holding L1 records the edge L1 → L2.
// Calls made under a held lock contribute edges to everything the
// callee may transitively acquire: each function's transitive acquire
// set is computed over the package call graph and exported as a LockSet
// object fact, and each package's accumulated edges are exported as a
// LockGraph package fact, so the graph spans membuf, core and flink no
// matter which package introduces the ordering.
//
// In both checks a deferred Unlock holds the lock to function exit, and
// function literals start with nothing held: their bodies run on other
// vclock processes (clock.Go) or after the lock is released, and
// charging them with the enclosing lock set would flag the common
// worker-spawn idiom.
//
// A cycle is reported at every *locally introduced* edge that
// participates in it (the packages that merely established the opposite
// order stay silent — their order is, by construction, the consistent
// one at the time they were analyzed). Because lock identity conflates
// instances of a type, an edge from a lock to itself (two instances
// locked in sequence) is ignored. Acquisitions whose ordering is
// justified — e.g. provably distinct instances ordered by address — are
// annotated //gflink:lock-order with a justification.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strconv"
	"strings"

	"gflink/internal/analysis"
)

// LockSet is an object fact: the set of lock IDs a function may
// acquire, directly or through any chain of static calls.
type LockSet struct {
	Locks []string
}

// AFact marks LockSet as a fact type.
func (*LockSet) AFact() {}

// LockGraph is a package fact: every acquired-while-holding edge known
// once this package is analyzed, its own and (cumulatively) its
// dependencies'. Pos is "file:line" of the acquisition that introduced
// the edge, for cross-package diagnostics.
type LockGraph struct {
	Edges []LockEdge
}

// AFact marks LockGraph as a fact type.
func (*LockGraph) AFact() {}

// LockEdge records that To was acquired while From was held.
type LockEdge struct {
	From string
	To   string
	Pos  string
}

// Analyzer implements the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "flag blocking vclock primitives (Queue.Get, Semaphore.Acquire, Clock.Sleep, Event.Wait, ...) called while a sync mutex is held, and build the whole-program lock-acquisition graph across packages to report cycles (potential ABBA deadlocks); suppress one edge with //gflink:lock-order",
	Run:       run,
	FactTypes: []analysis.Fact{(*LockSet)(nil), (*LockGraph)(nil)},
}

// blocking maps package path -> receiver type name -> methods that can
// park the calling process on the virtual clock.
var blocking = map[string]map[string]map[string]bool{
	"gflink/internal/vclock": {
		"Clock":     {"Sleep": true, "Run": true},
		"Queue":     {"Get": true},
		"Semaphore": {"Acquire": true, "Use": true},
		"Event":     {"Wait": true},
		"Group":     {"Wait": true},
	},
	// HBuffer.Pin charges the page-registration cost with Clock.Sleep,
	// so it is transitively blocking.
	"gflink/internal/membuf": {
		"HBuffer": {"Pin": true},
	},
}

// localEdge is an edge introduced by the package under analysis, with a
// real position for reporting.
type localEdge struct {
	from, to string
	pos      token.Pos
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := analysis.BuildCallGraph(pass)

	// Transitive acquire set per declared function: direct acquisitions
	// seeded from the body, closed over the package call graph, with
	// cross-package callees resolved through LockSet facts.
	acquires := g.Fixpoint(
		func(fi *analysis.FuncInfo) []string {
			return directAcquires(pass, fi.Decl.Body)
		},
		func(callee *types.Func) []string {
			var fact LockSet
			if pass.ImportObjectFact(callee, &fact) {
				return fact.Locks
			}
			return nil
		},
	)
	for _, fi := range g.Decls {
		if set := acquires[fi.Obj]; len(set) > 0 {
			pass.ExportObjectFact(fi.Obj, &LockSet{Locks: set})
		}
	}

	calleeAcquires := func(fn *types.Func) []string {
		if set, ok := acquires[fn]; ok {
			return set
		}
		var fact LockSet
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Locks
		}
		return nil
	}

	// Walk every body: report blocking calls under a held mutex and
	// collect this package's own edges, in source order.
	w := &walker{pass: pass, calleeAcquires: calleeAcquires}
	suppressed := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		idx := analysis.DirectiveIndex(pass.Fset, f)
		start := len(w.edges)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					w.walk(n.Body)
				}
				return false
			case *ast.FuncLit:
				w.walk(n.Body)
				return false
			}
			return true
		})
		for _, e := range w.edges[start:] {
			if analysis.DirectiveAt(idx, pass.Fset, "lock-order", e.pos) {
				suppressed[e.pos] = true
			}
		}
	}

	// Union: edges inherited from direct imports (each dependency's
	// graph is already cumulative) plus this package's own.
	merged := make(map[LockEdge]bool)
	var depPaths []string
	for _, imp := range pass.Pkg.Imports() {
		depPaths = append(depPaths, imp.Path())
	}
	sort.Strings(depPaths)
	for _, path := range depPaths {
		var fact LockGraph
		if pass.ImportPackageFact(path, &fact) {
			for _, e := range fact.Edges {
				merged[e] = true
			}
		}
	}
	adj := make(map[string]map[string]bool) // from -> to set
	addAdj := func(from, to string) {
		if adj[from] == nil {
			adj[from] = make(map[string]bool)
		}
		adj[from][to] = true
	}
	for e := range merged {
		addAdj(e.From, e.To)
	}
	for _, e := range w.edges {
		addAdj(e.from, e.to)
		pos := pass.Position(e.pos)
		merged[LockEdge{From: e.from, To: e.to, Pos: pos.Filename + ":" + strconv.Itoa(pos.Line)}] = true
	}

	// Export the cumulative graph (sorted for byte-stable facts).
	out := make([]LockEdge, 0, len(merged))
	for e := range merged {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Pos < b.Pos
	})
	if len(out) > 0 {
		pass.ExportPackageFact(&LockGraph{Edges: out})
	}

	// Report every locally introduced edge that closes a cycle.
	for _, e := range w.edges {
		if e.from == e.to || suppressed[e.pos] {
			continue
		}
		if path := pathBetween(adj, e.to, e.from); path != nil {
			cycle := append([]string{e.from}, path...)
			pass.Reportf(e.pos, "lock order cycle %s: %s is acquired here while %s is held, but the reverse order exists elsewhere in the program; acquire locks in one global order or annotate //gflink:lock-order with a justification",
				strings.Join(cycle, " -> "), e.to, e.from)
		}
	}
	return nil, nil
}

// directAcquires returns the sorted set of lock IDs Lock/RLock'd
// anywhere in body, function literals included (whichever process runs
// them, the acquisition is attributable to calling this function).
func directAcquires(pass *analysis.Pass, body *ast.BlockStmt) []string {
	seen := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, op, ok := mutexOp(pass, call); ok && (op == "Lock" || op == "RLock") {
			seen[lockID(pass, recv)] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// walker runs the held-set walk over a package's function bodies.
type walker struct {
	pass           *analysis.Pass
	calleeAcquires func(*types.Func) []string
	edges          []localEdge
}

// heldMutex is one mutex held by the walk, keyed by its receiver's
// expression text.
type heldMutex struct {
	recv string
	lock token.Pos
}

// walk scans one function body in source order. It keeps two held
// sets: every mutex by receiver text, for the blocking check, and the
// structural lock IDs, for order edges. It reports blocking calls made
// under any held mutex and records an edge for every acquisition and
// every transitive acquisition (via static calls) made under a held
// lock.
func (w *walker) walk(body *ast.BlockStmt) {
	pass := w.pass
	var held []heldMutex // acquisition order
	var ids []string     // acquisition order
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Fresh held sets: literals run on other vclock processes
			// or after the enclosing lock is released; their own
			// acquisitions still produce edges.
			w.walk(n.Body)
			return false
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock to function exit.
			if _, _, ok := mutexOp(pass, n.Call); ok {
				return false
			}
			return true
		case *ast.CallExpr:
			if x, op, ok := mutexOp(pass, n); ok {
				recv, id := types.ExprString(x), lockID(pass, x)
				i := slices.IndexFunc(held, func(h heldMutex) bool { return h.recv == recv })
				switch op {
				case "Lock", "RLock":
					if i < 0 {
						held = append(held, heldMutex{recv: recv, lock: n.Pos()})
					}
					if id != "" {
						for _, h := range ids {
							// h == id is two instances of one structural
							// lock; identity conflation makes any order
							// claim meaningless, so no edge.
							if h != id {
								w.edges = append(w.edges, localEdge{from: h, to: id, pos: n.Pos()})
							}
						}
						if !slices.Contains(ids, id) {
							ids = append(ids, id)
						}
					}
				case "Unlock", "RUnlock":
					if i >= 0 {
						held = slices.Delete(held, i, i+1)
					}
					if j := slices.Index(ids, id); j >= 0 {
						ids = slices.Delete(ids, j, j+1)
					}
				}
				return true
			}
			if len(held) > 0 {
				if desc, ok := blockingCall(pass, n); ok {
					h := held[len(held)-1]
					pass.Reportf(n.Pos(), "%s may block the virtual clock while %s is held (locked at line %d); release the mutex before calling blocking vclock primitives", desc, h.recv, pass.Position(h.lock).Line)
				}
			}
			if len(ids) == 0 {
				return true
			}
			callee := analysis.StaticCallee(pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			for _, to := range w.calleeAcquires(callee) {
				for _, h := range ids {
					if h != to {
						w.edges = append(w.edges, localEdge{from: h, to: to, pos: n.Pos()})
					}
				}
			}
		}
		return true
	})
}

// mutexOp reports whether call is Lock/Unlock/RLock/RUnlock on a
// sync.Mutex or sync.RWMutex, returning the receiver expression and the
// method name.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (recv ast.Expr, op string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	fn := calleeFunc(pass, sel)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return sel.X, fn.Name(), true
	}
	return nil, "", false
}

// blockingCall reports whether call parks the process on the virtual
// clock, returning a printable description of the callee.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn := calleeFunc(pass, sel)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	byType, ok := blocking[fn.Pkg().Path()]
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return "", false
	}
	if byType[named.Obj().Name()][fn.Name()] {
		return "(" + fn.Pkg().Name() + "." + named.Obj().Name() + ")." + fn.Name(), true
	}
	return "", false
}

// calleeFunc resolves the function or method a selector call binds to:
// a method value, a package-qualified function or a method expression.
func calleeFunc(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Func {
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		fn, _ := s.Obj().(*types.Func)
		return fn
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return fn
}

// lockID names a lock structurally: "pkg.Type.field" for mutex fields,
// "pkg.var" for package-level mutexes, "pkg.Type" for types embedding
// their mutex. Local mutexes get "" — they cannot participate in a
// cross-function ordering.
func lockID(pass *analysis.Pass, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[e]; ok {
			fld, ok := s.Obj().(*types.Var)
			if !ok {
				return ""
			}
			if named := namedOf(s.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fld.Name()
			}
			return ""
		}
		// Package-qualified global: pkg.mu.
		if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[e].(*types.Var)
		if !ok {
			return ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		// Receiver or local whose type embeds its mutex.
		if named := namedOf(v.Type()); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name()
		}
	}
	return ""
}

// namedOf unwraps pointers to the named type, if any.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// pathBetween returns a lock-ID path from a to b over adj (inclusive of
// both endpoints), or nil if b is unreachable. BFS in sorted neighbor
// order keeps diagnostics deterministic.
func pathBetween(adj map[string]map[string]bool, a, b string) []string {
	type queued struct {
		id   string
		path []string
	}
	queue := []queued{{id: a, path: []string{a}}}
	visited := map[string]bool{a: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.id == b {
			return cur.path
		}
		next := make([]string, 0, len(adj[cur.id]))
		for n := range adj[cur.id] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if !visited[n] {
				visited[n] = true
				queue = append(queue, queued{id: n, path: append(append([]string(nil), cur.path...), n)})
			}
		}
	}
	return nil
}
