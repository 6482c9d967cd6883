package bench

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"gflink/internal/core"
	"gflink/internal/membuf"
)

// parse a "1.23x" cell.
func speedupCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a speedup: %v", cell, err)
	}
	return v
}

// parse a "12.34s" cell.
func secondsCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "s"), 64)
	if err != nil {
		t.Fatalf("cell %q is not seconds: %v", cell, err)
	}
	return v
}

// tableOnce memoizes one experiment's table, with the stats of every
// TaskManager pool ([deployment][worker]) and the allocated bytes of
// every GPU ([deployment][device], workers in order) the run built,
// read once the run returned.
type tableOnce struct {
	once    sync.Once
	tbl     *Table
	pools   [][]membuf.Stats
	devUsed [][]int64
}

// tables maps an experiment ID to its *tableOnce, so each experiment
// runs once per test process and the shape tests, TestResultsGolden and
// TestExperimentsReturnEveryHostPage share the run. Callers must not
// modify the returned table.
var tables sync.Map

// memo returns e's memoized run, running e on first use.
func memo(e *Experiment) *tableOnce {
	v, _ := tables.LoadOrStore(e.ID, new(tableOnce))
	m := v.(*tableOnce)
	m.once.Do(func() {
		var gs []*core.GFlink
		deployObserver = func(g *core.GFlink) { gs = append(gs, g) }
		defer func() { deployObserver = nil }()
		m.tbl = e.Run()
		for _, g := range gs {
			var pools []membuf.Stats
			for _, tm := range g.Cluster.TaskManagers {
				pools = append(pools, tm.Pool.Stats())
			}
			m.pools = append(m.pools, pools)
			var used []int64
			for _, mgr := range g.Managers {
				for _, dev := range mgr.Devices {
					used = append(used, dev.UsedBytes())
				}
			}
			m.devUsed = append(m.devUsed, used)
		}
	})
	return m
}

// table returns e's memoized table.
func table(e *Experiment) *Table { return memo(e).tbl }

func runExp(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	tbl := table(e)
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return tbl
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c",
		"fig7a", "fig7b", "fig7c", "fig7d",
		"fig8a", "fig8b", "fig8c", "fig8d", "table2",
		"abl-layout", "abl-zerocopy", "abl-pipeline", "abl-locality", "abl-stealing", "abl-blocksize",
		"abl-chaining", "abl-projection", "abl-oocore",
		"abl-backpressure",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestFig5aShape(t *testing.T) {
	tbl := runExp(t, "fig5a")
	first := speedupCell(t, tbl.Rows[0][3])
	last := speedupCell(t, tbl.Rows[len(tbl.Rows)-1][3])
	if first < 3 || first > 12 {
		t.Errorf("KMeans speedup at 150M = %.2f, want ~5x band", first)
	}
	if last <= first {
		t.Errorf("speedup did not grow with size: %.2f -> %.2f", first, last)
	}
}

func TestFig5cWordCountIOBound(t *testing.T) {
	tbl := runExp(t, "fig5c")
	for _, row := range tbl.Rows {
		sp := speedupCell(t, row[3])
		if sp < 1.0 || sp > 2.0 {
			t.Errorf("WordCount speedup %s = %.2f outside the I/O-bound band", row[0], sp)
		}
	}
}

func TestFig6aSpMVGrowsToPaperBand(t *testing.T) {
	tbl := runExp(t, "fig6a")
	last := speedupCell(t, tbl.Rows[len(tbl.Rows)-1][3])
	if last < 3.5 {
		t.Errorf("SpMV speedup at 32GB = %.2f, want approaching ~6.3x", last)
	}
}

func TestFig6bLinRegBand(t *testing.T) {
	tbl := runExp(t, "fig6b")
	last := speedupCell(t, tbl.Rows[len(tbl.Rows)-1][3])
	if last < 6 || last > 13 {
		t.Errorf("LinReg speedup at 270M = %.2f, want ~9.2x band", last)
	}
}

func TestFig7bSteadyStateTenfold(t *testing.T) {
	tbl := runExp(t, "fig7b")
	// Steady iteration (row 5): CPU vs 1 GPU ~10x, 2 GPUs faster than 1.
	row := tbl.Rows[4]
	cpu, g1, g2 := secondsCell(t, row[1]), secondsCell(t, row[2]), secondsCell(t, row[3])
	if r := cpu / g1; r < 5 || r > 20 {
		t.Errorf("steady 1-GPU speedup %.1f, want ~10x band", r)
	}
	if g2 >= g1 {
		t.Errorf("2 GPUs (%v) not faster than 1 (%v)", g2, g1)
	}
	// First iteration much slower than steady on the GPU (I/O + first
	// transfer).
	first := secondsCell(t, tbl.Rows[0][2])
	if first < 3*g1 {
		t.Errorf("first GPU iteration %.2fs not >> steady %.2fs", first, g1)
	}
}

func TestFig7dGPUFlattens(t *testing.T) {
	tbl := runExp(t, "fig7d")
	cpuFirst := secondsCell(t, tbl.Rows[0][1])
	cpuLast := secondsCell(t, tbl.Rows[len(tbl.Rows)-1][1])
	gpuFirst := secondsCell(t, tbl.Rows[0][2])
	gpuLast := secondsCell(t, tbl.Rows[len(tbl.Rows)-1][2])
	cpuGain := cpuFirst / cpuLast
	gpuGain := gpuFirst / gpuLast
	if cpuGain < 3 {
		t.Errorf("CPU scaling 1->10 slaves only %.1fx", cpuGain)
	}
	if gpuGain > cpuGain/2 {
		t.Errorf("GPU should flatten: gpu gain %.1fx vs cpu gain %.1fx", gpuGain, cpuGain)
	}
}

func TestFig8aCacheSteadyState(t *testing.T) {
	tbl := runExp(t, "fig8a")
	row := tbl.Rows[len(tbl.Rows)-2]
	with, without := secondsCell(t, row[1]), secondsCell(t, row[2])
	if without <= with {
		t.Errorf("uncached iteration (%v) not slower than cached (%v)", without, with)
	}
	// First iteration identical: both transfer the matrix once.
	r0 := tbl.Rows[0]
	if secondsCell(t, r0[1]) != secondsCell(t, r0[2]) {
		t.Errorf("first iterations differ: %s vs %s", r0[1], r0[2])
	}
}

func TestFig8bGenerationOrdering(t *testing.T) {
	tbl := runExp(t, "fig8b")
	// KMeans GMapper row: GTX750 <= C2050 < K20 < P100.
	km := tbl.Rows[0]
	gtx, c2050, k20, p100 := speedupCell(t, km[1]), speedupCell(t, km[2]), speedupCell(t, km[3]), speedupCell(t, km[4])
	if !(p100 > k20 && k20 > c2050 && c2050 >= gtx) {
		t.Errorf("generation ordering violated: %v %v %v %v", gtx, c2050, k20, p100)
	}
	// The GReducer row gains little everywhere.
	gr := tbl.Rows[len(tbl.Rows)-1]
	for i := 1; i < len(gr); i++ {
		if sp := speedupCell(t, gr[i]); sp > 3 {
			t.Errorf("GReducer speedup %s = %.2f, want low", tbl.Header[i], sp)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tbl := runExp(t, "table2")
	// Bandwidth monotone in size; native >= GFlink on the smallest; both
	// plateau near 3 GB/s.
	var prevG float64
	for i, row := range tbl.Rows {
		g, _ := strconv.ParseFloat(row[1], 64)
		n, _ := strconv.ParseFloat(row[2], 64)
		if g < prevG {
			t.Errorf("GFlink bandwidth not monotone at %s", row[0])
		}
		prevG = g
		if i == 0 && n <= g {
			t.Errorf("native (%v) not faster than GFlink (%v) at 2KiB", n, g)
		}
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	g, _ := strconv.ParseFloat(last[1], 64)
	if g < 2700 || g > 3100 {
		t.Errorf("large-transfer bandwidth %v MB/s, want ~3 GB/s", g)
	}
}

func TestAblationsDirection(t *testing.T) {
	layout := runExp(t, "abl-layout")
	if r := speedupCell(t, layout.Rows[0][2]); r < 1.5 {
		t.Errorf("AoS/SoA penalty %.2f, want >= 1.5", r)
	}
	zero := runExp(t, "abl-zerocopy")
	if r := speedupCell(t, zero.Rows[len(zero.Rows)-1][3]); r < 2 {
		t.Errorf("zero-copy saving %.2f, want >= 2", r)
	}
	steal := runExp(t, "abl-stealing")
	if r := speedupCell(t, steal.Rows[1][2]); r < 1.2 {
		t.Errorf("stealing-off penalty %.2f, want >= 1.2", r)
	}
}

func TestAblChainingStrictWin(t *testing.T) {
	tbl := runExp(t, "abl-chaining")
	chained := secondsCell(t, tbl.Rows[0][1])
	unchained := secondsCell(t, tbl.Rows[1][1])
	if chained >= unchained {
		t.Errorf("chaining did not strictly reduce simulated time: %.2fs >= %.2fs", chained, unchained)
	}
	e, _ := ByID("abl-chaining")
	if err := e.Check(tbl); err != nil {
		t.Errorf("abl-chaining check rejected its own table: %v", err)
	}
}

func TestTransferAblationChecks(t *testing.T) {
	tbl := runExp(t, "abl-projection")
	e, _ := ByID("abl-projection")
	if err := e.Check(tbl); err != nil {
		t.Errorf("abl-projection check rejected its own table: %v", err)
	}
	if err := e.Check(&Table{}); err == nil {
		t.Error("abl-projection check accepted an empty table")
	}
}

func TestAblOocorePolicyGap(t *testing.T) {
	tbl := runExp(t, "abl-oocore")
	e, _ := ByID("abl-oocore")
	if err := e.Check(tbl); err != nil {
		t.Errorf("abl-oocore check rejected its own table: %v", err)
	}
	if err := e.Check(&Table{}); err == nil {
		t.Error("abl-oocore check accepted an empty table")
	}
	regressed := &Table{
		Rows: [][]string{{"kmeans", "2x"}},
		Notes: []string{
			"kmeans 2x: lru/fifo makespan = 1.0500x",
			"mem.spills at 5x+: 12",
		},
	}
	if err := e.Check(regressed); err == nil {
		t.Error("abl-oocore check accepted LRU losing to FIFO at 2x")
	}
	noSpill := &Table{
		Rows: [][]string{{"kmeans", "2x"}},
		Notes: []string{
			"kmeans 2x: lru/fifo makespan = 0.7000x",
			"mem.spills at 5x+: 0",
		},
	}
	if err := e.Check(noSpill); err == nil {
		t.Error("abl-oocore check accepted zero spills at 5x+")
	}
	// The resident (1x) row must tie across policies: nothing is ever
	// evicted, so the policy cannot matter.
	for _, row := range tbl.Rows {
		if row[1] != "1x" {
			continue
		}
		for i := 3; i < len(row); i++ {
			if row[i] != row[2] {
				t.Errorf("%s 1x: policy column %d (%s) differs from fifo (%s) on a resident working set",
					row[0], i, row[i], row[2])
			}
		}
	}
}

func TestFig8aCheckPinsSteadyState(t *testing.T) {
	tbl := runExp(t, "fig8a")
	e, _ := ByID("fig8a")
	if err := e.Check(tbl); err != nil {
		t.Errorf("fig8a check rejected its own table: %v", err)
	}
	bad := &Table{Notes: []string{"steady-state: uncached/cached = 1.20x"}}
	if err := e.Check(bad); err == nil {
		t.Error("fig8a check accepted a regressed steady-state ratio")
	}
}

func TestMarkdownRendering(t *testing.T) {
	tbl := runExp(t, "abl-layout")
	md := tbl.Markdown()
	for _, want := range []string{"### abl-layout", "| layout |", "| --- |", "*Note:*"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	txt := tbl.String()
	if !strings.Contains(txt, "abl-layout") || !strings.Contains(txt, "note:") {
		t.Errorf("text rendering incomplete:\n%s", txt)
	}
}

func TestDeterministicExperiment(t *testing.T) {
	a := runExp(t, "abl-zerocopy")
	e, _ := ByID("abl-zerocopy")
	if a.String() != e.Run().String() {
		t.Error("experiment output differs across runs")
	}
}

// TestExperimentsReturnEveryHostPage: every deployment of every
// experiment ends with each TaskManager pool at no page in use and none
// pinned, and with every GPU at no allocated byte, so a run returns
// every off-heap page and every device buffer it took, the harness's
// own GWork buffers and the cache regions included.
func TestExperimentsReturnEveryHostPage(t *testing.T) {
	for _, e := range All() {
		m := memo(e)
		if len(m.pools) == 0 {
			t.Errorf("%s: the observer saw no deployment; the check is vacuous", e.ID)
		}
		for d, pools := range m.pools {
			for w, st := range pools {
				if st.InUsePages != 0 || st.PinnedPages != 0 {
					t.Errorf("%s#%d worker %d pool: %d pages in use, %d pinned", e.ID, d, w, st.InUsePages, st.PinnedPages)
				}
			}
		}
		for d, used := range m.devUsed {
			for i, n := range used {
				if n != 0 {
					t.Errorf("%s#%d gpu %d: %d device bytes still allocated", e.ID, d, i, n)
				}
			}
		}
	}
}
