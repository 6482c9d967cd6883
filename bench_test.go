// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6) plus the ablations DESIGN.md calls out.
// BenchmarkExperiments runs each registered experiment from
// internal/bench as a sub-benchmark named after its ID and reports the
// experiment's headline metric. Run
//
//	go test -bench=Experiments -benchmem
//
// for the whole sweep, -bench=Experiments/fig8a for one experiment, or
// cmd/gflink-bench for the tables themselves.
package gflink

import (
	"strconv"
	"strings"
	"testing"

	"gflink/internal/bench"
)

// BenchmarkExperiments executes each experiment once per iteration and
// reports the last column of its last data row (the headline speedup or
// time) as a metric when it parses as a ratio.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) {
			var last *bench.Table
			for i := 0; i < b.N; i++ {
				last = e.Run()
			}
			if last == nil || len(last.Rows) == 0 {
				return
			}
			row := last.Rows[len(last.Rows)-1]
			cell := row[len(row)-1]
			if strings.HasSuffix(cell, "x") {
				if v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64); err == nil {
					b.ReportMetric(v, "speedup")
				}
			}
			if testing.Verbose() {
				b.Log("\n" + last.String())
			}
		})
	}
}
