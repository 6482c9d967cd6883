// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6) plus the ablations DESIGN.md calls out. Each
// benchmark runs the corresponding experiment from internal/bench at a
// reduced real-data scale and reports the experiment's headline metric.
// Some experiments' simulated results move with the scale (ROADMAP
// item 1 tracks the fix), so the metrics are reproducible only at
// benchScale and need not match cmd/gflink-bench at another -scale. Run
//
//	go test -bench=. -benchmem
//
// for the whole sweep, or cmd/gflink-bench for full-fidelity tables.
package gflink

import (
	"strconv"
	"strings"
	"testing"

	"gflink/internal/bench"
)

// benchScale shrinks real datasets for test runs.
const benchScale = 16

// runExperiment executes the experiment once per benchmark iteration
// and reports the last column of the last data row (the headline
// speedup or time) as a metric when it parses as a ratio.
func runExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		last = e.Run(benchScale)
	}
	if last != nil && len(last.Rows) > 0 {
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
	}
}

// Fig 5: running time and speedup of KMeans, PageRank and WordCount on
// the 10-slave cluster across five input sizes.
func BenchmarkFig5aKMeansCluster(b *testing.B)    { runExperiment(b, "fig5a") }
func BenchmarkFig5bPageRankCluster(b *testing.B)  { runExperiment(b, "fig5b") }
func BenchmarkFig5cWordCountCluster(b *testing.B) { runExperiment(b, "fig5c") }

// Fig 6: SpMV, LinearRegression and ComponentConnect on the cluster.
func BenchmarkFig6aSpMVCluster(b *testing.B)    { runExperiment(b, "fig6a") }
func BenchmarkFig6bLinRegCluster(b *testing.B)  { runExperiment(b, "fig6b") }
func BenchmarkFig6cConCompCluster(b *testing.B) { runExperiment(b, "fig6c") }

// Fig 7: per-iteration behaviour and scaling with slave count.
func BenchmarkFig7aKMeansIterations(b *testing.B) { runExperiment(b, "fig7a") }
func BenchmarkFig7bSpMVIterations(b *testing.B)   { runExperiment(b, "fig7b") }
func BenchmarkFig7cKMeansScaling(b *testing.B)    { runExperiment(b, "fig7c") }
func BenchmarkFig7dSpMVScaling(b *testing.B)      { runExperiment(b, "fig7d") }

// Fig 8: cache effect, per-generation kernel speedups, concurrency.
func BenchmarkFig8aCacheEffect(b *testing.B)          { runExperiment(b, "fig8a") }
func BenchmarkFig8bKernelSpeedups(b *testing.B)       { runExperiment(b, "fig8b") }
func BenchmarkFig8cConcurrentSingleNode(b *testing.B) { runExperiment(b, "fig8c") }
func BenchmarkFig8dConcurrentCluster(b *testing.B)    { runExperiment(b, "fig8d") }
func BenchmarkTable2TransferBandwidth(b *testing.B)   { runExperiment(b, "table2") }

// Ablations of the design choices DESIGN.md calls out.
func BenchmarkAblLayout(b *testing.B)    { runExperiment(b, "abl-layout") }
func BenchmarkAblZeroCopy(b *testing.B)  { runExperiment(b, "abl-zerocopy") }
func BenchmarkAblPipeline(b *testing.B)  { runExperiment(b, "abl-pipeline") }
func BenchmarkAblLocality(b *testing.B)  { runExperiment(b, "abl-locality") }
func BenchmarkAblStealing(b *testing.B)  { runExperiment(b, "abl-stealing") }
func BenchmarkAblBlockSize(b *testing.B) { runExperiment(b, "abl-blocksize") }
func BenchmarkAblChaining(b *testing.B)  { runExperiment(b, "abl-chaining") }
