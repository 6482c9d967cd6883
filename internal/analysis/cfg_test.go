package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// buildFixture parses and type-checks one file's worth of source and
// returns the CFG plus reaching defs of the named function.
func buildFixture(t *testing.T, src, fn string) (*types.Info, *CFG, *ReachingDefs, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("fixture", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn {
			continue
		}
		cfg := BuildCFG(info, fd.Body)
		rd := NewReachingDefs(info, cfg, fd.Recv, fd.Type)
		return info, cfg, rd, fd
	}
	t.Fatalf("function %s not found", fn)
	return nil, nil, nil, nil
}

// callBlock finds the block whose nodes contain a call to name.
func callBlock(cfg *CFG, name string) *Block {
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return true
			})
			if found {
				return b
			}
		}
	}
	return nil
}

// useOf finds the use identifier of a variable inside a call to mark.
func useOf(t *testing.T, info *types.Info, cfg *CFG, mark, varName string) *ast.Ident {
	t.Helper()
	blk := callBlock(cfg, mark)
	if blk == nil {
		t.Fatalf("no call to %s", mark)
	}
	var id *ast.Ident
	for _, n := range blk.Nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if i, ok := n.(*ast.Ident); ok && i.Name == varName {
				if _, isVar := info.Uses[i].(*types.Var); isVar {
					id = i
				}
			}
			return true
		})
	}
	if id == nil {
		t.Fatalf("no use of %s at %s", varName, mark)
	}
	return id
}

const joinSrc = `package fixture
func sink(int) {}
func branches(c bool) {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	sink(x)
}`

// TestBranchJoin: after an if/else both branch definitions reach the
// join, and the pre-branch definition is killed on every path.
func TestBranchJoin(t *testing.T) {
	_, cfg, rd, _ := buildFixture(t, joinSrc, "branches")
	id := useOf(t, rd.info, cfg, "sink", "x")
	defs := rd.DefsAt(id)
	if len(defs) != 2 {
		t.Fatalf("got %d reaching defs at sink(x), want 2 (both branches)", len(defs))
	}
	for _, d := range defs {
		if d.Kind != DefAssign {
			t.Errorf("def kind = %v, want DefAssign", d.Kind)
		}
	}
}

const loopSrc = `package fixture
func sink(int) {}
func loop(n int) {
	x := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 5 {
			break
		}
		x = i
	}
	sink(x)
}`

// TestLoopContinueBreak: the loop body's definition flows around the
// back edge, past continue and break, to the loop exit.
func TestLoopContinueBreak(t *testing.T) {
	_, cfg, rd, _ := buildFixture(t, loopSrc, "loop")
	id := useOf(t, rd.info, cfg, "sink", "x")
	defs := rd.DefsAt(id)
	if len(defs) != 2 {
		t.Fatalf("got %d reaching defs at sink(x), want 2 (init + body)", len(defs))
	}
	kinds := map[DefKind]int{}
	for _, d := range defs {
		kinds[d.Kind]++
	}
	if kinds[DefAssign] != 2 {
		t.Errorf("def kinds = %v, want two DefAssign", kinds)
	}
	// The break must jump straight to the loop exit: the block holding
	// sink(x) is reachable from the break's block.
	if cfg.Exit == nil || len(cfg.Exit.Preds) == 0 {
		t.Error("loop CFG has no path to exit")
	}
}

const panicSrc = `package fixture
func mayPanic(c bool) int {
	if c {
		panic("boom")
	}
	return 1
}`

// TestPanicEdges: an explicit panic(...) ends its block with an edge to
// the CFG's panic exit, not the normal exit.
func TestPanicEdges(t *testing.T) {
	_, cfg, _, _ := buildFixture(t, panicSrc, "mayPanic")
	if len(cfg.Panic.Preds) != 1 {
		t.Fatalf("panic block has %d preds, want 1", len(cfg.Panic.Preds))
	}
	from := cfg.Panic.Preds[0]
	hasPanicCall := false
	for _, n := range from.Nodes {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				hasPanicCall = true
			}
		}
	}
	if !hasPanicCall {
		t.Error("panic edge does not come from the panic call's block")
	}
	for _, s := range from.Succs {
		if s == cfg.Exit {
			t.Error("panicking block must not fall through to the normal exit")
		}
	}
}

const rangeSrc = `package fixture
func sink(int) {}
func iterate(xs []int) {
	total := 0
	for _, v := range xs {
		total += v
	}
	sink(total)
}`

// TestRangeLoop: range key/value defs and op-assign modify defs both
// resolve; the modified total reaches the sink along with its init.
func TestRangeLoop(t *testing.T) {
	_, cfg, rd, _ := buildFixture(t, rangeSrc, "iterate")
	id := useOf(t, rd.info, cfg, "sink", "total")
	defs := rd.DefsAt(id)
	if len(defs) != 2 {
		t.Fatalf("got %d reaching defs, want 2 (init + loop modify)", len(defs))
	}
	kinds := map[DefKind]bool{}
	for _, d := range defs {
		kinds[d.Kind] = true
	}
	if !kinds[DefAssign] || !kinds[DefModify] {
		t.Errorf("def kinds = %v, want DefAssign and DefModify", kinds)
	}
}

const untrackedSrc = `package fixture
func sink(int) {}
func escapes() {
	x := 1
	f := func() { x = 2 }
	f()
	p := 3
	q := &p
	_ = q
	sink(x)
	sink(p)
}`

// TestUntrackedVars: closure-assigned and address-taken variables are
// flagged untrackable and their uses resolve to no defs.
func TestUntrackedVars(t *testing.T) {
	_, cfg, rd, _ := buildFixture(t, untrackedSrc, "escapes")
	id := useOf(t, rd.info, cfg, "sink", "x")
	if rd.DefsAt(id) != nil {
		t.Error("closure-assigned var must not resolve to defs")
	}
	var xv *types.Var
	for use, obj := range rd.info.Uses {
		if use.Name == "x" {
			xv, _ = obj.(*types.Var)
		}
	}
	if xv == nil || rd.Tracked(xv) {
		t.Error("closure-assigned var must be untracked")
	}
}

const switchSrc = `package fixture
func sink(int) {}
func sw(n int) {
	x := 0
	switch n {
	case 1:
		x = 1
		fallthrough
	case 2:
		x = 2
	default:
		x = 3
	}
	sink(x)
}`

// TestSwitchFallthrough: with a default clause the pre-switch def dies;
// the fallthrough chains case 1 into case 2's block.
func TestSwitchFallthrough(t *testing.T) {
	_, cfg, rd, _ := buildFixture(t, switchSrc, "sw")
	id := useOf(t, rd.info, cfg, "sink", "x")
	defs := rd.DefsAt(id)
	// x=1 is always overwritten by the fallthrough into x=2, so only
	// x=2 and x=3 reach the join.
	if len(defs) != 2 {
		t.Fatalf("got %d reaching defs, want 2 (fallthrough kills case 1's def)", len(defs))
	}
}

// TestBackwardSolve runs a backward must-analysis over a diamond: "every
// path from here to exit calls done()". The lattice is bool with AND
// meet — the shape of an "on every path out" obligation check.
func TestBackwardSolve(t *testing.T) {
	src := `package fixture
func done()  {}
func work()  {}
func f(c bool) {
	work()
	if c {
		done()
		return
	}
	work()
}`
	_, cfg, _, _ := buildFixture(t, src, "f")
	callsDone := func(b *Block) bool {
		for _, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "done" {
						found = true
					}
				}
				return true
			})
			if found {
				return true
			}
		}
		return false
	}
	_, out := Solve(cfg, FlowProblem[bool]{
		Dir:      Backward,
		Boundary: false,
		Init:     func() bool { return true },
		Meet:     func(a, b bool) bool { return a && b },
		Transfer: func(b *Block, in bool) bool { return in || callsDone(b) },
		Equal:    func(a, b bool) bool { return a == b },
	})
	thenBlk := callBlock(cfg, "done")
	if !out[thenBlk] {
		t.Error("the done() branch must satisfy the property")
	}
	if out[cfg.Entry] {
		t.Error("the else path skips done(); entry must not satisfy the property")
	}
}

// TestSolveMay runs the shared forward may-solver over a diamond with
// two bits, both set before the branch: bit 0 is killed on the then arm
// only, bit 1 on both arms. A may-fact survives a join when any arm
// keeps it, so bit 0 must still hold at exit and bit 1 must not.
func TestSolveMay(t *testing.T) {
	src := `package fixture
func gen()   {}
func kill0() {}
func kill1() {}
func f(c bool) {
	gen()
	if c {
		kill0()
		kill1()
	} else {
		kill1()
	}
}`
	_, cfg, _, _ := buildFixture(t, src, "f")
	in := SolveMay(cfg, 2, func(b *Block, bits []bool) {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch call.Fun.(*ast.Ident).Name {
				case "gen":
					bits[0], bits[1] = true, true
				case "kill0":
					bits[0] = false
				case "kill1":
					bits[1] = false
				}
				return true
			})
		}
	})
	if got := in[cfg.Entry]; got[0] || got[1] {
		t.Errorf("entry bits = %v, want none set", got)
	}
	if got := in[callBlock(cfg, "kill0")]; !got[0] || !got[1] {
		t.Errorf("then-arm entry bits = %v, want both set", got)
	}
	exit := in[cfg.Exit]
	if !exit[0] {
		t.Error("bit 0 survives the else arm; it must be live at exit")
	}
	if exit[1] {
		t.Error("bit 1 is killed on both arms; it must not be live at exit")
	}
}

// TestGotoEdges: a forward goto patches an edge once its label appears.
func TestGotoEdges(t *testing.T) {
	src := `package fixture
func sink(int) {}
func jumps(c bool) {
	x := 1
	if c {
		goto end
	}
	x = 2
end:
	sink(x)
}`
	_, cfg, rd, _ := buildFixture(t, src, "jumps")
	id := useOf(t, rd.info, cfg, "sink", "x")
	defs := rd.DefsAt(id)
	if len(defs) != 2 {
		t.Fatalf("got %d reaching defs, want 2 (goto path keeps x=1)", len(defs))
	}
}

const deferLoopSrc = `package fixture
func sink(int) {}
func release(int) {}
func deferInLoop(n int) {
	x := 0
	for i := 0; i < n; i++ {
		defer release(i)
		x = i
	}
	sink(x)
}`

// TestDeferInLoop: a defer inside a loop body leaves the loop's
// dataflow unaffected: init and body defs both reach the sink past the
// defer.
func TestDeferInLoop(t *testing.T) {
	_, cfg, rd, _ := buildFixture(t, deferLoopSrc, "deferInLoop")
	id := useOf(t, rd.info, cfg, "sink", "x")
	defs := rd.DefsAt(id)
	if len(defs) != 2 {
		t.Fatalf("got %d reaching defs, want 2 (init + loop body)", len(defs))
	}
}

const labeledLoopSrc = `package fixture
func sink(int) {}
func nested(m, n int) {
	x := 0
outer:
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if j == 1 {
				continue outer
			}
			if j == 2 {
				break outer
			}
			x = i + j
		}
		x = -1
	}
	sink(x)
}`

// TestLabeledBreakContinue: `continue outer` from the inner loop must
// target the outer loop's post statement (skipping the outer body's
// trailing x=-1 on that path), and `break outer` must jump past both
// loops. All three assignments still reach the sink: init (m==0),
// x=i+j (via break outer after it), and x=-1 (inner loop ran dry).
func TestLabeledBreakContinue(t *testing.T) {
	_, cfg, rd, _ := buildFixture(t, labeledLoopSrc, "nested")
	id := useOf(t, rd.info, cfg, "sink", "x")
	defs := rd.DefsAt(id)
	if len(defs) != 3 {
		t.Fatalf("got %d reaching defs, want 3 (init, inner body, outer tail)", len(defs))
	}
	// The labeled-jump blocks must not fall through into the inner
	// loop's ordinary continue target: each ends in exactly one edge,
	// and neither edge lands on an inner-loop block.
	var inner []*Block
	for _, b := range cfg.Blocks {
		if strings.HasPrefix(b.Kind, "for.") && b.Kind != "for.exit" {
			inner = append(inner, b)
		}
	}
	if len(inner) == 0 {
		t.Fatal("no for.* blocks built for nested loops")
	}
}

const selectSrc = `package fixture
func sink(int) {}
func sel(ch chan int) {
	x := 0
	select {
	case v := <-ch:
		x = v
	default:
		x = 1
	}
	sink(x)
}`

// TestSelectWithDefault: both the comm case and the default clause get
// their own blocks joining after the select, and — because the default
// makes the select exhaustive — the pre-select x=0 is killed on every
// path: only the two in-select assignments reach the sink.
func TestSelectWithDefault(t *testing.T) {
	_, cfg, rd, _ := buildFixture(t, selectSrc, "sel")
	id := useOf(t, rd.info, cfg, "sink", "x")
	defs := rd.DefsAt(id)
	if len(defs) != 2 {
		t.Fatalf("got %d reaching defs, want 2 (case + default kill the init)", len(defs))
	}
	cases, joins := 0, 0
	for _, b := range cfg.Blocks {
		switch b.Kind {
		case "select.case":
			cases++
		case "select.join":
			joins++
		}
	}
	if cases != 2 {
		t.Errorf("got %d select.case blocks, want 2 (comm case + default)", cases)
	}
	if joins != 1 {
		t.Errorf("got %d select.join blocks, want 1", joins)
	}
}

// TestBlockKindsAreLabeled sanity-checks the debug labels the builder
// assigns, which the analyzer tests lean on when diagnosing failures.
func TestBlockKindsAreLabeled(t *testing.T) {
	_, cfg, _, _ := buildFixture(t, joinSrc, "branches")
	var kinds []string
	for _, b := range cfg.Blocks {
		kinds = append(kinds, b.Kind)
	}
	joined := strings.Join(kinds, " ")
	for _, want := range []string{"entry", "exit", "panic", "if.then", "if.else", "if.join"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q block in %v", want, kinds)
		}
	}
}

// TestNonNilOnEntry pins which branch blocks name an identifier as
// non-nil: only the single-predecessor arms of an if on a plain nil
// comparison.
func TestNonNilOnEntry(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"neq then", "if x != nil { mark() }", "x"},
		{"eq else", "if x == nil { other() } else { mark() }", "x"},
		{"eq fallthrough", "if x == nil { return }; mark()", "x"},
		{"mirrored neq", "if nil != x { mark() }", "x"},
		{"parenthesized", "if (x != nil) { mark() }", "x"},
		{"eq then", "if x == nil { mark() }", ""},
		{"compound", "if x != nil && ok { mark() }", ""},
		{"switch", "switch { case x != nil: mark() }", ""},
		{"loop", "for x != nil { mark(); x = nil }", ""},
		{"join", "if x != nil { other() }; mark()", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "package p\nfunc mark() {}\nfunc other() {}\nfunc f(x *int, ok bool) {\n" + tc.body + "\n}\n"
			_, cfg, _, _ := buildFixture(t, src, "f")
			blk := callBlock(cfg, "mark")
			got := ""
			if id := NonNilOnEntry(blk); id != nil {
				got = id.Name
			}
			if got != tc.want {
				t.Errorf("NonNilOnEntry = %q, want %q", got, tc.want)
			}
		})
	}
}
