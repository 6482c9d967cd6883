package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// rep is one timed run of a workload: host costs of set-up and of the
// simulation, and what the run produced.
type rep struct {
	setup, wall, cpu time.Duration
	allocBytes       uint64
	out              outcome
	// sim holds the simulated per-layer metrics read from the run's spans
	// and counters, traced runs only.
	sim map[string]metricValue
	// profile is the gzipped CPU profile of the simulation, traced runs
	// only.
	profile []byte
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRep sets up one fresh deployment and runs the workload once. Set-up
// is everything from Spec.Build through the generated inputs; the timed
// part is the simulation itself. With traced set, the deployment's span
// tracer stays on (core.New turns it on) and a CPU profile covers the
// simulation; otherwise the tracer is switched off, as every timed run
// must be. Counters stay on either way, as in real deployments.
func runRep(w *workload, seed uint64, traced, corrupt bool, spans *spanLog) (r rep, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run panicked: %v", p)
		}
	}()
	runtime.GC()
	parent := spans.begin("rep:"+w.name, -1)
	t0 := time.Now()
	sp := spans.begin("build", parent)
	g := w.spec.Build()
	spans.end(sp)
	g.Obs.Tracer().SetEnabled(traced)
	sp = spans.begin("prepare", parent)
	inst := w.prepare(g, seed, corrupt)
	spans.end(sp)
	defer inst.release()
	r.setup = time.Since(t0)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp = spans.begin("run", parent)
	simulate := func() {
		cpu0, t1 := cpuTime(), time.Now()
		g.Run(func() { r.out = inst.drive() })
		r.wall, r.cpu = time.Since(t1), cpuTime()-cpu0
	}
	if traced {
		r.profile, err = withProfile(simulate)
	} else {
		simulate()
	}
	spans.end(sp)
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if traced {
		r.sim = simLayers(g, r.out)
	}
	spans.end(parent)
	return r, err
}

// withProfile runs fn under the CPU profiler and returns the gzipped
// profile.
func withProfile(fn func()) (prof []byte, err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	defer func() {
		pprof.StopCPUProfile()
		prof = buf.Bytes()
	}()
	fn()
	return nil, nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed exactly as Python's statistics.quantiles(xs, n=4) does (the
// default exclusive method). Fewer than two values yield the value
// itself.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		ld := len(s)
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
