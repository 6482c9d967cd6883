package analysis

// This file is the flow-sensitive layer of the analysis framework:
// per-function control-flow graphs built over the AST loader, a generic
// forward worklist solver, and a reaching-definitions lattice with
// per-use def resolution. The AST-walking analyzers (wallclock,
// outputpurity) check properties of individual expressions; the CFG
// analyzers (poolsafe, clockflow) check
// properties of *paths* — "freed on every way out of the function",
// "derived from a vclock reading on every definition that reaches this
// argument" — which no single-pass walk can express.
//
// The design mirrors golang.org/x/tools/go/cfg where the contracts
// overlap: blocks hold statement-level nodes in execution order, and
// control statements are represented by their scrutinee (an if's Cond,
// a switch's Tag) rather than the whole statement, except for
// *ast.RangeStmt, which appears in its header block as itself — clients
// walking block nodes must not descend into a RangeStmt's Body, which
// is represented by successor blocks.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Block is one straight-line sequence of nodes: execution enters at
// the top, runs every node in order, and leaves along one of Succs.
type Block struct {
	// Index is the block's position in CFG.Blocks (dense, stable).
	Index int
	// Kind labels the block's origin ("entry", "if.then", "for.body",
	// ...); NonNilOnEntry tells an if from a loop or switch by it.
	Kind string
	// Nodes are the statements and scrutinee expressions executed in
	// this block, in order.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs, Preds []*Block
}

// A CFG is the control-flow graph of one function body. Entry has no
// Nodes; a function's parameters are modeled by the analyses' boundary
// values, not by entry-block statements. Exit collects every return
// (and the fall-off-the-end path); Panic collects every explicit
// panic(...) statement, giving analyses a distinct abnormal exit on
// which deferred cleanup still runs.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	Panic  *Block
}

// BuildCFG constructs the CFG of one function body. info (optional) is
// used to distinguish the panic builtin from a shadowing declaration;
// with a nil info any call spelled panic(...) is treated as the
// builtin.
func BuildCFG(info *types.Info, body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{info: info, cfg: &CFG{}}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cfg.Panic = b.newBlock("panic")
	first := b.newBlock("body")
	b.edge(b.cfg.Entry, first)
	b.cur = first
	b.stmtList(body.List)
	// Falling off the end of the body is an implicit return.
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit)
	}
	return b.cfg
}

// loopTarget records where break/continue jump for one enclosing
// breakable construct.
type loopTarget struct {
	label     string
	brk, cont *Block // cont is nil for switch/select
}

type cfgBuilder struct {
	info  *types.Info
	cfg   *CFG
	cur   *Block // nil after a terminator (return/panic/branch)
	loops []loopTarget
	// labels maps a label name to its block; gotos seen before their
	// label park in pendingGotos until the label is declared.
	labels       map[string]*Block
	pendingGotos map[string][]*Block
	// pendingLabel is the label naming the next loop/switch statement.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block, reviving an unreachable
// block after a terminator so dead code is still analyzed (harmlessly:
// it has no predecessors, so dataflow assigns it the bottom value).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// seal ends the current block after a terminator.
func (b *cfgBuilder) seal() { b.cur = nil }

// jumpTo adds an edge from the current block (if live) and seals it.
func (b *cfgBuilder) jumpTo(to *Block) {
	if b.cur != nil {
		b.edge(b.cur, to)
	}
	b.seal()
}

// takeLabel consumes the pending label for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// isPanicCall reports whether e is a call to the panic builtin.
func (b *cfgBuilder) isPanicCall(e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return nil, false
	}
	if b.info != nil {
		if _, builtin := b.info.Uses[id].(*types.Builtin); !builtin {
			return nil, false
		}
	}
	return call, true
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		join := b.newBlock("if.join")
		then := b.newBlock("if.then")
		b.edge(head, then)
		b.cur = then
		b.stmt(s.Body)
		b.jumpTo(join)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(head, els)
			b.cur = els
			b.stmt(s.Else)
			b.jumpTo(join)
		} else {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		b.jumpTo(head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock("for.body")
		exit := b.newBlock("for.exit")
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, exit)
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			cont = post
		}
		b.loops = append(b.loops, loopTarget{label: label, brk: exit, cont: cont})
		b.cur = body
		b.stmt(s.Body)
		b.loops = b.loops[:len(b.loops)-1]
		if post != nil {
			b.jumpTo(post)
			b.cur = post
			b.stmt(s.Post)
			b.jumpTo(head)
		} else {
			b.jumpTo(head)
		}
		b.cur = exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		b.jumpTo(head)
		head.Nodes = append(head.Nodes, s) // clients: do not descend into s.Body
		body := b.newBlock("range.body")
		exit := b.newBlock("range.exit")
		b.edge(head, body)
		b.edge(head, exit)
		b.loops = append(b.loops, loopTarget{label: label, brk: exit, cont: head})
		b.cur = body
		b.stmt(s.Body)
		b.loops = b.loops[:len(b.loops)-1]
		b.jumpTo(head)
		b.cur = exit

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.buildSwitch(label, s.Body.List, func(c *ast.CaseClause, blk *Block) {
			for _, e := range c.List {
				blk.Nodes = append(blk.Nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.buildSwitch(label, s.Body.List, nil)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		if head == nil {
			head = b.newBlock("unreachable")
			b.cur = head
		}
		join := b.newBlock("select.join")
		b.loops = append(b.loops, loopTarget{label: label, brk: join})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			b.edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jumpTo(join)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if len(s.Body.List) == 0 {
			// select{} blocks forever: join is unreachable.
			b.seal()
		}
		b.cur = join

	case *ast.LabeledStmt:
		lb := b.newBlock("label." + s.Label.Name)
		b.jumpTo(lb)
		b.cur = lb
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = lb
		for _, from := range b.pendingGotos[s.Label.Name] {
			b.edge(from, lb)
		}
		delete(b.pendingGotos, s.Label.Name)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK, token.CONTINUE:
			want := ""
			if s.Label != nil {
				want = s.Label.Name
			}
			for i := len(b.loops) - 1; i >= 0; i-- {
				t := b.loops[i]
				if s.Tok == token.CONTINUE && t.cont == nil {
					continue // switch/select: continue targets the loop outside
				}
				if want != "" && t.label != want {
					continue
				}
				if s.Tok == token.BREAK {
					b.jumpTo(t.brk)
				} else {
					b.jumpTo(t.cont)
				}
				return
			}
			b.seal() // malformed branch; drop the edge rather than crash
		case token.GOTO:
			if s.Label == nil {
				b.seal()
				return
			}
			if to, ok := b.labels[s.Label.Name]; ok {
				b.jumpTo(to)
				return
			}
			if b.cur != nil {
				if b.pendingGotos == nil {
					b.pendingGotos = make(map[string][]*Block)
				}
				b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], b.cur)
			}
			b.seal()
		case token.FALLTHROUGH:
			// Handled structurally by buildSwitch; reaching one here
			// (malformed code) just ends the block.
			b.seal()
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jumpTo(b.cfg.Exit)

	case *ast.ExprStmt:
		if call, ok := b.isPanicCall(s.X); ok {
			b.add(call)
			b.jumpTo(b.cfg.Panic)
			return
		}
		b.add(s)

	case *ast.DeferStmt:
		// The defer's arguments are evaluated here; the call itself
		// runs at function exit, which analyses model from this node.
		b.add(s)

	default:
		// Assignments, declarations, inc/dec, go, send, empty: straight
		// line.
		b.add(s)
	}
}

// buildSwitch lowers (type-)switch clauses: every clause is entered
// from the head (guards are not exclusive for the analysis — a may
// over-approximation), falls through to the join, and a fallthrough
// statement chains to the next clause's block. addScrutinee, when
// non-nil, records each clause's case expressions in its block.
func (b *cfgBuilder) buildSwitch(label string, clauses []ast.Stmt, addScrutinee func(*ast.CaseClause, *Block)) {
	head := b.cur
	if head == nil {
		head = b.newBlock("unreachable")
		b.cur = head
	}
	join := b.newBlock("switch.join")
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock("switch.case")
		b.edge(head, blocks[i])
		if cc, ok := c.(*ast.CaseClause); ok {
			if cc.List == nil {
				hasDefault = true
			}
			if addScrutinee != nil {
				addScrutinee(cc, blocks[i])
			}
		}
	}
	if !hasDefault {
		b.edge(head, join)
	}
	b.loops = append(b.loops, loopTarget{label: label, brk: join})
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.cur = blocks[i]
		body := cc.Body
		fallsThrough := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				body = body[:n-1]
				fallsThrough = i+1 < len(clauses)
			}
		}
		b.stmtList(body)
		if fallsThrough {
			b.jumpTo(blocks[i+1])
		} else {
			b.jumpTo(join)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = join
}

// FlowProblem describes one monotone forward dataflow problem over a
// CFG for Solve. F is the lattice element type; Meet, Transfer and
// Equal must treat their arguments as immutable and return fresh
// values.
type FlowProblem[F any] struct {
	// Boundary is the value at the entry block.
	Boundary F
	// Init yields the optimistic initial value for every other block.
	Init func() F
	// Meet combines the values arriving along multiple edges.
	Meet func(a, b F) F
	// Transfer pushes a value through one block's nodes.
	Transfer func(b *Block, in F) F
	// Equal detects convergence.
	Equal func(a, b F) bool
}

// Solve runs the iterative worklist algorithm to fixpoint and returns
// the value at each block's entry.
func Solve[F any](cfg *CFG, p FlowProblem[F]) map[*Block]F {
	in := make(map[*Block]F, len(cfg.Blocks))
	out := make(map[*Block]F, len(cfg.Blocks))
	for _, blk := range cfg.Blocks {
		if blk == cfg.Entry {
			in[blk] = p.Boundary
		} else {
			in[blk] = p.Init()
		}
		out[blk] = p.Transfer(blk, in[blk])
	}
	work := make([]*Block, len(cfg.Blocks))
	copy(work, cfg.Blocks)
	queued := make([]bool, len(cfg.Blocks))
	for i := range queued {
		queued[i] = true
	}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk.Index] = false
		if blk != cfg.Entry {
			v := p.Init()
			for _, pr := range blk.Preds {
				v = p.Meet(v, out[pr])
			}
			in[blk] = v
		}
		nv := p.Transfer(blk, in[blk])
		if p.Equal(nv, out[blk]) {
			continue
		}
		out[blk] = nv
		for _, s := range blk.Succs {
			if !queued[s.Index] {
				queued[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// DefKind classifies how a Def gives its variable a value.
type DefKind int

const (
	// DefParam: function parameter, receiver, or named result.
	DefParam DefKind = iota
	// DefAssign: x = e, x := e, or var x = e.
	DefAssign
	// DefZero: var x T with no initializer (zero value).
	DefZero
	// DefRange: a range statement's key or value variable.
	DefRange
	// DefModify: x op= e, x++, x-- — the previous value flows in.
	DefModify
)

// A Def is one definition site of a local variable.
type Def struct {
	Var  *types.Var
	Kind DefKind
	// Node is the defining statement or, for DefParam, the declaring
	// field; nil for unlisted receivers.
	Node ast.Node
	// RHS is the defining expression for DefAssign/DefModify. When the
	// assignment unpacks multiple values (x, y := f()), RHS is the
	// whole multi-valued expression and Multi is true.
	RHS   ast.Expr
	Multi bool
	// Block is the block the definition executes in (nil for params).
	Block *Block
	// index is the def's dense id in its ReachingDefs universe.
	index int
}

// ReachingDefs is the classic forward may-analysis: for every use of a
// local variable, which definitions can supply its value. Variables
// whose value escapes simple tracking — address-taken, or assigned
// inside a nested function literal — are reported via Tracked as
// untrackable, and uses inside nested function literals are not
// resolved (they execute at an unknown time).
type ReachingDefs struct {
	cfg  *CFG
	info *types.Info

	defs      []*Def
	byVar     map[*types.Var][]*Def
	untracked map[*types.Var]bool
	useDefs   map[*ast.Ident][]*Def
}

// NewReachingDefs computes reaching definitions for one function. recv
// and params declare the boundary definitions (either may be nil);
// body vars are discovered from the CFG's nodes.
func NewReachingDefs(info *types.Info, cfg *CFG, recv *ast.FieldList, fnType *ast.FuncType) *ReachingDefs {
	r := &ReachingDefs{
		cfg:       cfg,
		info:      info,
		byVar:     make(map[*types.Var][]*Def),
		untracked: make(map[*types.Var]bool),
		useDefs:   make(map[*ast.Ident][]*Def),
	}
	var params []*Def
	addParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					params = append(params, r.newDef(v, DefParam, f, nil, false, nil))
				}
			}
		}
	}
	addParams(recv)
	if fnType != nil {
		addParams(fnType.Params)
		addParams(fnType.Results) // named results are zero-valued params
	}

	// First pass: mark untrackable variables (address-taken anywhere,
	// or assigned inside a function literal) and collect the defs of
	// each block in order.
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			r.scanUntracked(n, false)
		}
	}
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			b := blk
			r.walkNode(n, nil, func(d *Def) { d.Block = b })
		}
	}

	// Dataflow over def bitsets: a def of v kills every other def of v.
	entry := newBitset(len(r.defs))
	for _, d := range params {
		entry.set(d.index)
	}
	inSets := Solve(cfg, FlowProblem[bitset]{
		Boundary: entry,
		Init:     func() bitset { return newBitset(len(r.defs)) },
		Meet: func(a, b bitset) bitset {
			m := a.clone()
			m.union(b)
			return m
		},
		Transfer: func(blk *Block, in bitset) bitset {
			cur := in.clone()
			for _, n := range blk.Nodes {
				r.walkNode(n, nil, func(d *Def) { r.apply(cur, d) })
			}
			return cur
		},
		Equal: func(a, b bitset) bool { return a.equal(b) },
	})

	// Resolution pass: replay each block from its fixpoint entry value,
	// resolving every use against the current def set.
	for _, blk := range cfg.Blocks {
		cur := inSets[blk].clone()
		for _, n := range blk.Nodes {
			r.walkNode(n,
				func(id *ast.Ident) {
					v := r.useVar(id)
					if v == nil || r.untracked[v] {
						return
					}
					var ds []*Def
					for _, d := range r.byVar[v] {
						if cur.has(d.index) {
							ds = append(ds, d)
						}
					}
					r.useDefs[id] = ds
				},
				func(d *Def) { r.apply(cur, d) })
		}
	}
	return r
}

// DefsAt returns the definitions that may reach a use of a local
// variable, or nil when the identifier is not a tracked local use.
func (r *ReachingDefs) DefsAt(id *ast.Ident) []*Def { return r.useDefs[id] }

// Tracked reports whether v's definitions are fully visible to the
// analysis: declared in this function, never address-taken, never
// assigned from a nested function literal.
func (r *ReachingDefs) Tracked(v *types.Var) bool {
	return v != nil && !r.untracked[v] && len(r.byVar[v]) > 0
}

func (r *ReachingDefs) newDef(v *types.Var, kind DefKind, node ast.Node, rhs ast.Expr, multi bool, blk *Block) *Def {
	d := &Def{Var: v, Kind: kind, Node: node, RHS: rhs, Multi: multi, Block: blk, index: len(r.defs)}
	r.defs = append(r.defs, d)
	r.byVar[v] = append(r.byVar[v], d)
	return d
}

// apply updates a def bitset with one definition executing.
func (r *ReachingDefs) apply(cur bitset, d *Def) {
	for _, o := range r.byVar[d.Var] {
		cur.clear(o.index)
	}
	cur.set(d.index)
}

// useVar resolves an identifier in value position to a variable.
func (r *ReachingDefs) useVar(id *ast.Ident) *types.Var {
	v, _ := r.info.Uses[id].(*types.Var)
	return v
}

// scanUntracked marks variables the analysis must give up on. inLit is
// true once the walk has entered a nested function literal: any
// assignment target there is untracked (it can run at any time).
func (r *ReachingDefs) scanUntracked(n ast.Node, inLit bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !inLit {
				r.scanUntracked(n.Body, true)
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v := DefVar(r.info, id); v != nil {
						r.untracked[v] = true
					}
				}
			}
		case *ast.AssignStmt:
			if inLit {
				for _, l := range n.Lhs {
					if id, ok := ast.Unparen(l).(*ast.Ident); ok {
						if v := DefVar(r.info, id); v != nil {
							r.untracked[v] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if inLit {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v := DefVar(r.info, id); v != nil {
						r.untracked[v] = true
					}
				}
			}
		case *ast.RangeStmt:
			// A block-level RangeStmt node: only its header belongs
			// here. Its body is other blocks; do not double-visit.
			if !inLit {
				if n.X != nil {
					r.scanUntracked(n.X, false)
				}
				return false
			}
		}
		return true
	})
}

// walkNode visits one block node in evaluation order, reporting
// variable uses (before the defs of the same node) and definitions.
// Uses inside nested function literals are not reported. Either
// callback may be nil.
func (r *ReachingDefs) walkNode(n ast.Node, use func(*ast.Ident), def func(*Def)) {
	if use == nil {
		use = func(*ast.Ident) {}
	}
	if def == nil {
		def = func(*Def) {}
	}
	uses := func(e ast.Node) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.Ident:
				if r.useVar(n) != nil {
					use(n)
				}
			}
			return true
		})
	}
	mkDef := func(id *ast.Ident, kind DefKind, node ast.Node, rhs ast.Expr, multi bool) {
		v := DefVar(r.info, id)
		if v == nil {
			return
		}
		// Reuse the Def discovered in the collection pass: defs are
		// identified by (var, node), and walkNode visits nodes in the
		// same order every pass.
		for _, d := range r.byVar[v] {
			if d.Node == node && d.Kind == kind {
				def(d)
				return
			}
		}
		def(r.newDef(v, kind, node, rhs, multi, nil))
	}

	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			uses(e)
		}
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			multi := len(n.Lhs) > 1 && len(n.Rhs) == 1
			for i, l := range n.Lhs {
				l = ast.Unparen(l)
				if id, ok := l.(*ast.Ident); ok {
					rhs := ast.Expr(nil)
					if multi {
						rhs = n.Rhs[0]
					} else if i < len(n.Rhs) {
						rhs = n.Rhs[i]
					}
					mkDef(id, DefAssign, n, rhs, multi)
				} else {
					uses(l) // a[i] = ..., x.f = ...: index/base are read
				}
			}
		} else {
			// Op-assign: the target is read, then modified.
			for _, l := range n.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					use(id)
					mkDef(id, DefModify, n, n.Rhs[0], false)
				} else {
					uses(l)
				}
			}
		}

	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			use(id)
			mkDef(id, DefModify, n, nil, false)
		} else {
			uses(n.X)
		}

	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, e := range vs.Values {
				uses(e)
			}
			multi := len(vs.Names) > 1 && len(vs.Values) == 1
			for i, name := range vs.Names {
				switch {
				case len(vs.Values) == 0:
					mkDef(name, DefZero, vs, nil, false)
				case multi:
					mkDef(name, DefAssign, vs, vs.Values[0], true)
				case i < len(vs.Values):
					mkDef(name, DefAssign, vs, vs.Values[i], false)
				}
			}
		}

	case *ast.RangeStmt:
		uses(n.X)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				mkDef(id, DefRange, n, nil, false)
			} else {
				uses(e)
			}
		}

	default:
		uses(n)
	}
}

// bitset is a dense bit vector sized at construction.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) union(o bitset) {
	for i := range o {
		if i < len(b) {
			b[i] |= o[i]
		}
	}
}

func (b bitset) equal(o bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
