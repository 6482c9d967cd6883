package main

import (
	"errors"
	"math"
	"sort"
	"time"

	"gflink/internal/core"
)

var errNoRuns = errors.New("no completed runs")

// perLayer reduces a traced invocation to the per-layer metrics: host
// CPU per layer from the traced runs' profiles, the tracing overhead
// against the untraced runs, simulated time and counts per layer from the
// first traced run's spans and counters, and the layer microbenchmarks.
func perLayer(plain, traced []rep, micro map[string]float64) (map[string]metricValue, error) {
	if len(plain) == 0 || len(traced) == 0 {
		return nil, errNoRuns
	}
	m := make(map[string]metricValue)
	byLayer := make(map[string]int64, len(hostLayers))
	var profiled int64
	var cpu time.Duration
	var wallTraced, wallPlain []float64
	for _, r := range traced {
		samples, err := decodeProfile(r.profile)
		if err != nil {
			return nil, err
		}
		b, total := bucketProfile(samples)
		for l, ns := range b {
			byLayer[l] += ns
		}
		profiled += total
		cpu += r.cpu
		wallTraced = append(wallTraced, r.wall.Seconds())
	}
	for _, r := range plain {
		wallPlain = append(wallPlain, r.wall.Seconds())
	}
	// Host buckets are per run, so they compare with one run's host_cpu_s.
	n := float64(len(traced))
	for _, l := range hostLayers {
		m["host."+l+"_s"] = metricValue{float64(byLayer[l]) / 1e9 / n, "cpu_s"}
	}
	m["host.profile_coverage"] = metricValue{float64(profiled) / float64(cpu), "ratio"}
	m["trace_overhead_frac"] = metricValue{median(wallTraced)/median(wallPlain) - 1, "ratio"}
	for k, v := range traced[0].sim {
		m[k] = v
	}
	for k, v := range micro {
		m[k] = metricValue{v, "ns"}
	}
	return m, nil
}

// simLayers returns the simulated per-layer metrics of one traced run:
// time each layer's spans cover, latency percentiles, and the layers'
// counters. Summed times (queue, transfers, kernels, tier moves, credit
// waits) add over every concurrent span, so they can exceed the makespan.
func simLayers(g *core.GFlink, out outcome) map[string]metricValue {
	m := make(map[string]metricValue)
	spans := g.Obs.Tracer().Spans()
	reg := g.Obs.Metrics()
	var queue, h2d, kernel, d2h, tier, credit time.Duration
	var gworkMS, windowMS []float64
	for i, s := range spans {
		switch s.Cat {
		case "queue":
			queue += s.Dur()
		case "gwork":
			// A GWork's latency runs from submission, the start of the queue
			// span recorded just before it, to the end of its pipeline.
			start := s.Start
			if i > 0 && spans[i-1].Cat == "queue" {
				start = spans[i-1].Start
			}
			gworkMS = append(gworkMS, ms(s.End-start))
		case "stage":
			if s.Track == "driver" {
				continue // plan nodes, not GWork pipeline stages
			}
			switch s.Name {
			case "h2d":
				h2d += s.Dur()
			case "kernel":
				kernel += s.Dur()
			case "d2h":
				d2h += s.Dur()
			}
		case "mem":
			tier += s.Dur()
		case "backpressure":
			credit += s.Dur()
		case "window":
			windowMS = append(windowMS, ms(s.Dur()))
		}
	}
	simS := func(d time.Duration) metricValue { return metricValue{d.Seconds(), "sim_s"} }
	count := func(v int64) metricValue { return metricValue{float64(v), "count"} }
	total := func(prefix string) int64 { return reg.Total(prefix) }

	m["sim.queue_s"] = simS(queue)
	m["sim.gwork_p50_ms"] = metricValue{percentile(gworkMS, 0.50), "sim_ms"}
	m["sim.gwork_p99_ms"] = metricValue{percentile(gworkMS, 0.99), "sim_ms"}
	m["gworks"] = count(int64(len(gworkMS)))
	m["sched.direct"] = count(total("sched.direct"))
	m["sched.pooled"] = count(total("sched.pooled"))
	m["sched.steals"] = count(total("sched.steals"))

	m["sim.h2d_s"] = simS(h2d)
	m["sim.kernel_s"] = simS(kernel)
	m["sim.d2h_s"] = simS(d2h)
	m["xfer.h2d_gb"] = metricValue{float64(total("xfer.h2d.bytes")) / 1e9, "GB"}
	m["xfer.d2h_gb"] = metricValue{float64(total("xfer.d2h.bytes")) / 1e9, "GB"}

	hits, misses := total("cache.hits"), total("cache.misses")
	m["cache.hits"] = count(hits)
	m["cache.misses"] = count(misses)
	m["cache.evictions"] = count(total("cache.evictions"))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	m["cache.hit_ratio"] = metricValue{ratio, "ratio"}

	m["sim.tier_s"] = simS(tier)
	m["mem.demotions"] = count(total("mem.demotions"))
	m["mem.promotions"] = count(total("mem.promotions"))
	m["mem.spills"] = count(total("mem.spills"))
	m["mem.reloads"] = count(total("mem.reloads"))

	// Iterations (kmeans): the first and last carry the HDFS read and
	// write when the job has them, the steady state is the median of the
	// rest. hdfs, netsim and the flink CPU path emit no spans of their
	// own, so their share shows only inside these.
	var first, steady, last time.Duration
	if it := out.iterations; len(it) > 0 {
		first, last = it[0], it[len(it)-1]
		var mid []float64
		for _, d := range it[1 : len(it)-1] {
			mid = append(mid, d.Seconds())
		}
		steady = time.Duration(median(mid) * 1e9)
	}
	m["sim.iter_first_s"] = simS(first)
	m["sim.iter_steady_s"] = simS(steady)
	m["sim.iter_last_s"] = simS(last)

	m["sim.credit_wait_s"] = simS(credit)
	m["sim.window_p50_ms"] = metricValue{percentile(windowMS, 0.50), "sim_ms"}
	m["sim.window_p99_ms"] = metricValue{percentile(windowMS, 0.99), "sim_ms"}
	m["stream.windows"] = count(out.stream.Windows)
	m["stream.grants"] = count(total("stream.grants"))
	m["stream.depthmax"] = count(out.stream.MaxDepth)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
