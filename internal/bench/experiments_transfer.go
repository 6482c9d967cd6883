package bench

import (
	"fmt"
	"time"

	"gflink/internal/core"
	"gflink/internal/workloads"
)

// Transfer-channel ablations: SoA column projection (abl-projection)
// and chunked double-buffered GWork pipelining (abl-chunking). Both
// features are off in paper mode, so every pinned figure is untouched;
// these experiments flip them on against the identical deployment and
// check two invariants — the simulated timings move the way the
// transfer model says they must, and the workload outputs (checksums)
// do not move at all.

func init() {
	register(&Experiment{
		ID:    "abl-projection",
		Title: "Ablation: SoA column projection on the transfer channel",
		Paper: "kernels declare the columns they read; unread metadata columns never cross PCIe, shrinking H2D volume and steady-state iteration time for transfer-bound workloads",
		Run: func() *Table {
			t := &Table{ID: "abl-projection", Title: "Column projection ablation",
				Paper:  "ship referenced columns only: H2D bytes and steady iterations drop, outputs identical",
				Header: []string{"workload", "H2D off", "H2D on", "steady off", "steady on", "speedup"}}
			type outcome struct {
				r   workloads.Result
				h2d int64
			}
			run := func(project bool, drive func(g *core.GFlink) workloads.Result) outcome {
				spec := paperSpec(1, 2, 50_000)
				spec.Projection = project
				g := spec.Build()
				var r workloads.Result
				g.Run(func() { r = drive(g) })
				return outcome{r: r, h2d: g.Obs.Metrics().Total("xfer.h2d.bytes")}
			}
			cases := []struct {
				name  string
				drive func(g *core.GFlink) workloads.Result
			}{
				// Uncached runs with wide records: the D (resp. D+1) columns
				// the kernel reads are a quarter of each record, the rest is
				// unread metadata, and every iteration re-ships the blocks.
				{"kmeans", func(g *core.GFlink) workloads.Result {
					return workloads.KMeansGPU(g, workloads.KMeansParams{
						Points: 50e6, K: 10, D: 8, MetaCols: 24, Iterations: 4, Seed: 7})
				}},
				{"linreg", func(g *core.GFlink) workloads.Result {
					return workloads.LinRegGPU(g, workloads.LinRegParams{
						Samples: 50e6, D: 8, MetaCols: 23, Iterations: 4, Seed: 7})
				}},
			}
			for _, c := range cases {
				off := run(false, c.drive)
				on := run(true, c.drive)
				steadyOff := off.r.Iterations[len(off.r.Iterations)-1]
				steadyOn := on.r.Iterations[len(on.r.Iterations)-1]
				t.AddRow(c.name,
					fmt.Sprintf("%.2fGiB", float64(off.h2d)/(1<<30)),
					fmt.Sprintf("%.2fGiB", float64(on.h2d)/(1<<30)),
					secs(steadyOff), secs(steadyOn),
					ratio(float64(steadyOff)/float64(steadyOn)))
				t.Note("%s: h2d off=%d on=%d bytes, steady off=%d on=%d ns, equal=%t",
					c.name, off.h2d, on.h2d, steadyOff.Nanoseconds(), steadyOn.Nanoseconds(),
					off.r.Checksum == on.r.Checksum)
			}
			return t
		},
		Check: func(t *Table) error {
			if len(t.Notes) != 2 {
				return fmt.Errorf("abl-projection: want 2 notes, got %d", len(t.Notes))
			}
			var best float64
			for i, name := range []string{"kmeans", "linreg"} {
				var h2dOff, h2dOn, nsOff, nsOn int64
				var equal bool
				if _, err := fmt.Sscanf(t.Notes[i],
					name+": h2d off=%d on=%d bytes, steady off=%d on=%d ns, equal=%t",
					&h2dOff, &h2dOn, &nsOff, &nsOn, &equal); err != nil {
					return fmt.Errorf("abl-projection: unparsable note %q: %w", t.Notes[i], err)
				}
				if h2dOn >= h2dOff {
					return fmt.Errorf("abl-projection: %s H2D bytes did not strictly drop (%d -> %d)", name, h2dOff, h2dOn)
				}
				if !equal {
					return fmt.Errorf("abl-projection: %s output checksum changed with projection on", name)
				}
				if s := float64(nsOff) / float64(nsOn); s > best {
					best = s
				}
			}
			if best < 1.2 {
				return fmt.Errorf("abl-projection: best steady-iteration speedup %.2fx, want >= 1.2x", best)
			}
			return nil
		},
	})

	register(&Experiment{
		ID:    "abl-chunking",
		Title: "Ablation: chunked double-buffered GWork pipelining",
		Paper: "splitting a GWork into cost-model-chosen chunks across two streams overlaps the H2D of chunk i+1 with the kernel of chunk i, hiding kernel time behind the transfer on transfer-bound works",
		Run: func() *Table {
			t := &Table{ID: "abl-chunking", Title: "Chunked pipelining ablation",
				Paper:  "double-buffered chunks shorten the makespan of single large GWorks, outputs identical",
				Header: []string{"workload", "metric", "chunking off", "chunking on", "saving"}}
			chunkSpans := func(g *core.GFlink) int {
				n := 0
				for _, s := range g.Obs.Tracer().Spans() {
					if s.Cat == "chunk" {
						n++
					}
				}
				return n
			}
			run := func(chunk bool, drive func(g *core.GFlink) workloads.Result) (workloads.Result, int) {
				spec := paperSpec(1, 2, 50_000)
				spec.Chunking = chunk
				g := spec.Build()
				var r workloads.Result
				g.Run(func() { r = drive(g) })
				return r, chunkSpans(g)
			}
			// SpMV sized to one uncached ~128MiB-nominal block per GPU, so
			// the monolithic path has no second GWork to overlap with and
			// the first iteration pays the full serial matrix transfer.
			spmvOff, spansOff := run(false, func(g *core.GFlink) workloads.Result {
				return workloads.SpMVGPU(g, workloads.SpMVParams{
					MatrixBytes: 256 << 20, NNZPerRow: 64, Iterations: 2, Parallelism: 2, Seed: 7})
			})
			spmvOn, spansOn := run(true, func(g *core.GFlink) workloads.Result {
				return workloads.SpMVGPU(g, workloads.SpMVParams{
					MatrixBytes: 256 << 20, NNZPerRow: 64, Iterations: 2, Parallelism: 2, Seed: 7})
			})
			firstOff, firstOn := spmvOff.Iterations[0], spmvOn.Iterations[0]
			t.AddRow("spmv", "first iteration", secs(firstOff), secs(firstOn),
				fmt.Sprintf("%.1fms", (firstOff-firstOn).Seconds()*1e3))
			t.Note("spmv: first-iter off=%d on=%d ns, chunk spans off=%d on=%d, equal=%t",
				firstOff.Nanoseconds(), firstOn.Nanoseconds(), spansOff, spansOn,
				spmvOff.Checksum == spmvOn.Checksum)

			// WordCount: one tokenize GWork per GPU, the whole text crossing
			// PCIe once with only the dense count table coming back.
			wcOff, wspansOff := run(false, func(g *core.GFlink) workloads.Result {
				return workloads.WordCountGPU(g, workloads.WordCountParams{
					Bytes: 4 << 30, Parallelism: 2, Seed: 7})
			})
			wcOn, wspansOn := run(true, func(g *core.GFlink) workloads.Result {
				return workloads.WordCountGPU(g, workloads.WordCountParams{
					Bytes: 4 << 30, Parallelism: 2, Seed: 7})
			})
			t.AddRow("wordcount", "total", secs(wcOff.Total), secs(wcOn.Total),
				fmt.Sprintf("%.1fms", (wcOff.Total-wcOn.Total).Seconds()*1e3))
			t.Note("wordcount: total off=%d on=%d ns, chunk spans off=%d on=%d, equal=%t",
				wcOff.Total.Nanoseconds(), wcOn.Total.Nanoseconds(), wspansOff, wspansOn,
				wcOff.Checksum == wcOn.Checksum)
			return t
		},
		Check: func(t *Table) error {
			if len(t.Notes) != 2 {
				return fmt.Errorf("abl-chunking: want 2 notes, got %d", len(t.Notes))
			}
			check := func(note, name, metric string) error {
				var offNs, onNs int64
				var spansOff, spansOn int
				var equal bool
				if _, err := fmt.Sscanf(note,
					name+": "+metric+" off=%d on=%d ns, chunk spans off=%d on=%d, equal=%t",
					&offNs, &onNs, &spansOff, &spansOn, &equal); err != nil {
					return fmt.Errorf("abl-chunking: unparsable note %q: %w", note, err)
				}
				if spansOff != 0 {
					return fmt.Errorf("abl-chunking: %s run with chunking off recorded %d chunk spans, want 0", name, spansOff)
				}
				if spansOn == 0 {
					return fmt.Errorf("abl-chunking: %s run with chunking on recorded no chunk spans — the policy never split", name)
				}
				if time.Duration(onNs) >= time.Duration(offNs) {
					return fmt.Errorf("abl-chunking: %s did not strictly win (%dns -> %dns)", name, offNs, onNs)
				}
				if !equal {
					return fmt.Errorf("abl-chunking: %s output checksum changed with chunking on", name)
				}
				return nil
			}
			if err := check(t.Notes[0], "spmv", "first-iter"); err != nil {
				return err
			}
			return check(t.Notes[1], "wordcount", "total")
		},
	})
}
