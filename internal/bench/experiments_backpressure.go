package bench

import (
	"fmt"

	"gflink/internal/core"
	"gflink/internal/plan"
	"gflink/internal/stream"
	"gflink/internal/workloads"
)

// backpressureLimits is the buffer-depth axis of the sweep, in credits
// (batches) per edge.
var backpressureLimits = []int{1, 4, 16}

// backpressureRecords is the stream length each cell ingests.
const backpressureRecords = 131072

// backpressureRun drives one (consumer placement, buffer limit) cell on
// a fresh two-worker deployment: the source on worker 0 outruns the
// window consumer on worker 1, so throughput is governed by how much
// pipeline overlap the credit limit allows.
func backpressureRun(mode plan.Mode, limit int, onBuild func(*core.GFlink)) stream.Result {
	spec := paperSpec(2, 1, 1)
	spec.OnBuild = onBuild
	g := spec.Build()
	var res stream.Result
	g.Run(func() {
		res = workloads.Backpressure(g, workloads.BackpressureParams{
			Records:       backpressureRecords,
			Mode:          mode,
			BufferBatches: limit,
		})
	})
	return res
}

func init() {
	register(&Experiment{
		ID:    "abl-backpressure",
		Title: "Ablation: streaming credit-based backpressure — throughput vs buffer limit x consumer placement",
		Paper: "bounded buffers under a rate mismatch: throughput rises monotonically with the credit limit as the credit round trip overlaps production, and the producer's credits-blocked time proves backpressure engaged at the smallest limit",
		Run: func() *Table {
			t := &Table{
				ID:     "abl-backpressure",
				Title:  "Streaming backpressure ablation",
				Paper:  "monotone throughput-vs-buffer-limit curve; producer blocks at limit 1",
				Header: []string{"consumer", "buffer", "throughput", "blocked", "depth max"},
			}
			// The six (placement, limit) cells are independent two-worker
			// deployments; the sweep fans out across OS threads in
			// row-major declared order.
			type point struct {
				mode  plan.Mode
				limit int
			}
			var pts []point
			for _, mode := range []plan.Mode{plan.ForceCPU, plan.ForceGPU} {
				for _, limit := range backpressureLimits {
					pts = append(pts, point{mode, limit})
				}
			}
			run := RunPoints(len(pts), func(i int, onBuild func(*core.GFlink)) stream.Result {
				return backpressureRun(pts[i].mode, pts[i].limit, onBuild)
			})
			thr := map[string]map[int]float64{}
			blocked1 := map[string]int64{}
			for i, pt := range pts {
				res := run[i]
				name := pt.mode.String()
				if thr[name] == nil {
					thr[name] = map[int]float64{}
				}
				thr[name][pt.limit] = res.Throughput
				if pt.limit == backpressureLimits[0] {
					blocked1[name] = int64(res.Blocked)
				}
				t.AddRow(name, fmt.Sprint(pt.limit),
					fmt.Sprintf("%.0f rec/s", res.Throughput),
					res.Blocked.String(),
					fmt.Sprint(res.MaxDepth))
			}
			for _, name := range []string{"cpu", "gpu"} {
				t.Note("%s consumer throughput rec/s: b1=%.0f b4=%.0f b16=%.0f",
					name, thr[name][1], thr[name][4], thr[name][16])
			}
			t.Note("producer blocked ns at buffer 1: cpu=%d gpu=%d",
				blocked1["cpu"], blocked1["gpu"])
			return t
		},
		Check: checkBackpressure,
	})
}

// checkBackpressure pins the curve's shape: throughput must rise
// meaningfully from a 1-batch to a 4-batch buffer for both consumer
// placements (the credit round trip stops serializing production), must
// not regress from 4 to 16 beyond noise, and the producer must have
// spent real virtual time blocked on credits at the smallest limit.
func checkBackpressure(t *Table) error {
	if len(t.Rows) == 0 {
		return fmt.Errorf("abl-backpressure: empty table")
	}
	curves := map[string][3]float64{}
	var blockedCPU, blockedGPU int64
	foundBlocked := false
	for _, n := range t.Notes {
		var name string
		var b1, b4, b16 float64
		if _, err := fmt.Sscanf(n, "%s consumer throughput rec/s: b1=%f b4=%f b16=%f", &name, &b1, &b4, &b16); err == nil {
			curves[name] = [3]float64{b1, b4, b16}
			continue
		}
		if _, err := fmt.Sscanf(n, "producer blocked ns at buffer 1: cpu=%d gpu=%d", &blockedCPU, &blockedGPU); err == nil {
			foundBlocked = true
		}
	}
	for _, name := range []string{"cpu", "gpu"} {
		c, ok := curves[name]
		if !ok {
			return fmt.Errorf("abl-backpressure: missing %s throughput note", name)
		}
		if c[0] <= 0 || c[1] <= 0 || c[2] <= 0 {
			return fmt.Errorf("abl-backpressure: %s curve has non-positive throughput: %v", name, c)
		}
		if c[1] < c[0]*1.02 {
			return fmt.Errorf("abl-backpressure: %s throughput b4 (%.0f) not >= 1.02x b1 (%.0f) — deeper buffers did not pay", name, c[1], c[0])
		}
		if c[2] < c[1]*0.995 {
			return fmt.Errorf("abl-backpressure: %s throughput regressed from b4 (%.0f) to b16 (%.0f)", name, c[1], c[2])
		}
	}
	if !foundBlocked {
		return fmt.Errorf("abl-backpressure: missing blocked-time note")
	}
	if blockedCPU <= 0 || blockedGPU <= 0 {
		return fmt.Errorf("abl-backpressure: producer never blocked at buffer limit 1 (cpu=%dns gpu=%dns) — backpressure did not engage", blockedCPU, blockedGPU)
	}
	return nil
}
