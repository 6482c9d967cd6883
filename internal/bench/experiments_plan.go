package bench

import (
	"fmt"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/plan"
)

func init() {
	register(&Experiment{
		ID:    "abl-chaining",
		Title: "Ablation: operator chaining in the plan layer",
		Paper: "Flink's operator chaining: fusing narrow operators removes per-operator task deployment and downstream per-record iterator overhead",
		Run: func() *Table {
			t := &Table{ID: "abl-chaining", Title: "Operator chaining ablation",
				Paper:  "fused chain = one deploy + one record-overhead pass; unfused pays both per operator",
				Header: []string{"plan", "pipeline time", "vs chained"}}
			chained := runChainPipeline(false)
			unchained := runChainPipeline(true)
			t.AddRow("chained", secs(chained), "1.00x")
			t.AddRow("unchained", secs(unchained), ratio(float64(unchained)/float64(chained)))
			t.Note("unfused/fused = %.2fx", float64(unchained)/float64(chained))
			return t
		},
		Check: func(t *Table) error {
			if len(t.Rows) != 2 {
				return fmt.Errorf("abl-chaining: want 2 rows, got %d", len(t.Rows))
			}
			chained, err := parseSeconds(t.Rows[0][1])
			if err != nil {
				return err
			}
			unchained, err := parseSeconds(t.Rows[1][1])
			if err != nil {
				return err
			}
			if chained >= unchained {
				return fmt.Errorf("abl-chaining: chaining did not strictly reduce simulated time (%.2fs >= %.2fs)", chained, unchained)
			}
			return nil
		},
	})
}

// runChainPipeline measures one execution of a four-operator narrow
// pipeline on the plan layer: with chaining the four operators fuse
// into a single task deployment; without it each runs as its own eager
// operator, paying TaskDeploy and the iterator's per-record overhead
// at every step.
func runChainPipeline(disableChaining bool) time.Duration {
	g := paperSpec(2, 1, 50_000).Build()
	var total time.Duration
	g.Run(func() {
		gr := plan.NewGraph(g, "chain-bench", plan.Options{Mode: plan.ForceCPU, DisableChaining: disableChaining})
		src := plan.Source(gr, "nums", func(ctx *plan.Ctx) *flink.Dataset[int64] {
			return flink.Generate(ctx.Job, "nums", 50_000_000, 8, 8, func(part int, ord int64) int64 {
				return int64(part)*1_000_003 + ord
			})
		})
		w := costmodel.Work{Flops: 4, BytesRead: 8}
		a := plan.Map(src, "scale", w, 8, func(v int64) int64 { return v * 3 })
		b := plan.Map(a, "shift", w, 8, func(v int64) int64 { return v + 17 })
		c := plan.Filter(b, "drop5ths", w, func(v int64) bool { return v%5 != 0 })
		d := plan.Map(c, "neg", w, 8, func(v int64) int64 { return -v })
		plan.Collect(d, "drain", func(ctx *plan.Ctx, recs []int64) {})
		t0 := g.Clock.Now()
		gr.Execute()
		total = g.Clock.Now() - t0
	})
	return total
}
