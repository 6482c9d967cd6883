package core

import (
	"testing"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/membuf"
)

// submitDouble builds and submits one double-kernel GWork.
func submitDouble(g *GFlink, n int, nominal int64) (*GWork, *membuf.HBuffer, *membuf.HBuffer) {
	pool := g.Cluster.TaskManagers[0].Pool
	in := pool.MustAllocate(4 * n)
	out := pool.MustAllocate(4 * n)
	w := &GWork{
		ExecuteName: "core_test.double",
		Size:        n,
		Nominal:     nominal,
		BlockSize:   256,
		GridSize:    (n + 255) / 256,
		In:          []Input{{Buf: in, Nominal: 4 * nominal}},
		Out:         out,
		OutNominal:  4 * nominal,
		JobID:       1,
	}
	g.Manager(0).Streams.Submit(w)
	return w, in, out
}

// TestWorkReportAccounting pins the stage-attribution invariant: for
// every executed GWork QueueWait + H2D + Kernel + D2H equals the
// submit-to-completion interval exactly, and the emitted span tree
// tiles the same interval (queue span from submit to pipeline start,
// gwork span of exactly Pipeline() length).
func TestWorkReportAccounting(t *testing.T) {
	t.Run("monolithic", func(t *testing.T) {
		g := New(Config{
			Config:        flink.Config{Workers: 1, Model: costmodel.Default(), ScaleDivisor: 1},
			GPUsPerWorker: 1,
		})
		type run struct {
			wall  time.Duration
			queue time.Duration
			pipe  time.Duration
		}
		var runs []run
		g.Run(func() {
			clock := g.Cluster.Clock
			for i := 0; i < 3; i++ {
				t0 := clock.Now()
				w, in, out := submitDouble(g, 256, 1<<20)
				if err := w.Wait(); err != nil {
					t.Fatal(err)
				}
				wall := clock.Now() - t0
				rep := w.Report()
				runs = append(runs, run{wall: wall, queue: rep.QueueWait, pipe: rep.Pipeline()})
				in.Free()
				out.Free()
			}
		})
		for i, r := range runs {
			if got := r.queue + r.pipe; got != r.wall {
				t.Errorf("work %d: QueueWait+H2D+Kernel+D2H = %v, wall = %v (diff %v)", i, got, r.wall, r.wall-got)
			}
		}
		// The span tree must tile the same intervals: each queue span
		// ends where its gwork span starts, and the gwork span is
		// exactly Pipeline() long.
		var qEnds, gStarts []time.Duration
		var gi int
		for _, s := range g.Obs.Tracer().Spans() {
			switch s.Cat {
			case "queue":
				qEnds = append(qEnds, s.End)
			case "gwork":
				gStarts = append(gStarts, s.Start)
				if gi < len(runs) && s.Dur() != runs[gi].pipe {
					t.Errorf("gwork span %d: Dur = %v, want Pipeline() = %v", gi, s.Dur(), runs[gi].pipe)
				}
				gi++
			}
		}
		if len(qEnds) != len(runs) || len(gStarts) != len(runs) {
			t.Fatalf("got %d queue / %d gwork spans, want %d each", len(qEnds), len(gStarts), len(runs))
		}
		for i := range qEnds {
			if qEnds[i] != gStarts[i] {
				t.Errorf("queue span %d ends at %v but gwork starts at %v", i, qEnds[i], gStarts[i])
			}
		}
	})
}
