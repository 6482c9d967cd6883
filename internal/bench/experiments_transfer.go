package bench

import (
	"fmt"

	"gflink/internal/core"
	"gflink/internal/workloads"
)

// Transfer-channel ablation: SoA column projection (abl-projection).
// Projection is off in paper mode, so every pinned figure is untouched;
// this experiment flips it on against the identical deployment and
// checks two invariants — the simulated timings move the way the
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
}
