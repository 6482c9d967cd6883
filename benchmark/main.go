// Command benchmark measures GFlink on four fixed workloads with both of
// its clocks: simulated time (the modelled system's makespan) and host
// time (what the simulator costs to produce it). Each workload runs as
// many timed repetitions as fit in -seconds, each on a fresh deployment
// with tracing off, and reports medians. -trace 1 runs the workload
// traced and profiled instead and reports the per-layer breakdown;
// -compare judges two sets of -json outputs against the bounds in
// BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	// corrupt perturbs every run's output before it is checked; the
	// tests use it to prove the checks fire.
	corrupt bool
}

// setupSamples is how many extra set-ups an invocation measures besides
// the one each timed repetition makes, so setup_s is a median of many
// short readings.
const setupSamples = 15

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all for every workload in order")
	seed := fs.Uint64("seed", 7, "seed every input generator is keyed by")
	seconds := fs.Float64("seconds", 15, "host seconds of timed repetitions per workload")
	trace := fs.Int("trace", 0, "1 runs traced and profiled and reports the per-layer metrics")
	jsonPath := fs.String("json", "", "also write the results (and, traced, the host spans) to this file")
	compare := fs.Bool("compare", false, "compare result files: -compare base.json... -- head.json...")
	bounds := fs.String("bounds", "BENCHMARK.json", "metric definitions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), *bounds, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	ws := allWorkloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		ws = []*workload{w}
	}
	// At most two threads run Go code at once, whatever the host has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1}
	var results []result
	for _, w := range ws {
		res := measure(w, o)
		printResult(stdout, res)
		results = append(results, res)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, results); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line := summary(results)
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !line.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's measurements in one invocation.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Reps      int                    `json:"reps"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Spans     []hostSpan             `json:"host_spans,omitempty"`
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary folds the per-workload results into the final line. A single
// workload's metrics keep their names; with several, each name is
// prefixed by its workload.
func summary(results []result) summaryLine {
	line := summaryLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(results) > 1 {
				k = r.Workload + "/" + k
			}
			line.Metrics[k] = v
		}
	}
	return line
}

// printResult writes one line per metric: workload, name, value, unit.
func printResult(w io.Writer, r result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%s error_rate %.6g ratio (%d of %d checks failed, %d reps)\n", r.Workload, rate, r.Failed, r.Attempted, r.Reps)
}

func writeJSON(path string, results []result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

// tally counts checks over an invocation.
type tally struct{ attempted, failed int }

func (t *tally) add(checks, failures int) {
	t.attempted += checks
	t.failed += failures
}

// expect counts one check that passes when ok holds.
func (t *tally) expect(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// measure runs one workload for one invocation: the reference, the set-up
// samples, then timed repetitions (and, traced, the per-layer runs).
func measure(w *workload, o options) result {
	var spans *spanLog
	if o.traced {
		spans = newSpanLog()
	}
	res := result{Workload: w.name, Seed: o.seed, Trace: o.traced}
	var t tally

	sp := spans.begin("reference:"+w.name, -1)
	ref := w.reference(o.seed)
	spans.end(sp)

	if !o.traced {
		var setups []float64
		for i := 0; i < setupSamples; i++ {
			d, err := setupOnce(w, o.seed)
			if err != nil {
				t.expect(false)
				continue
			}
			setups = append(setups, d.Seconds())
		}
		reps := timedReps(w, o, o.seconds, false, ref, nil, &t)
		res.Metrics = endToEnd(reps, setups)
		res.Reps = len(reps)
	} else {
		plain := timedReps(w, o, o.seconds/2, false, ref, nil, &t)
		micro := microbenchmarks()
		traced := timedReps(w, o, o.seconds/2, true, ref, spans, &t)
		// The traced runs must reproduce the untraced ones exactly.
		if len(plain) > 0 {
			for _, r := range traced {
				t.expect(sameOutcome(r.out, plain[0].out))
			}
		}
		m, err := perLayer(plain, traced, micro)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			t.expect(false)
		}
		res.Metrics = m
		res.Reps = len(traced)
		res.Spans = spans.spans
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && t.attempted > 0 && len(res.Metrics) > 0
	return res
}

// setupOnce measures one set-up: build the deployment and prepare the
// inputs. The deployment then runs an empty driver so its processes
// exit, and the inputs are released; neither is timed.
func setupOnce(w *workload, seed uint64) (d time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("set-up panicked: %v", p)
		}
	}()
	runtime.GC()
	t0 := time.Now()
	g := w.spec.Build()
	g.Obs.Tracer().SetEnabled(false)
	inst := w.prepare(g, seed, false)
	d = time.Since(t0)
	defer inst.release()
	g.Run(func() {})
	return d, nil
}

// timedReps runs repetitions until budget host seconds have passed (at
// least one), checking each against the reference and against the
// first repetition: a deterministic simulator must repeat exactly.
func timedReps(w *workload, o options, budget float64, traced bool, ref outcome, spans *spanLog, t *tally) []rep {
	var reps []rep
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < budget {
		r, err := runRep(w, o.seed, traced, o.corrupt, spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			t.expect(false)
			break
		}
		sp := spans.begin("check", -1)
		t.add(w.check(r.out, ref))
		if len(reps) > 0 {
			t.expect(sameOutcome(r.out, reps[0].out))
			if traced {
				t.expect(reflect.DeepEqual(r.sim, reps[0].sim))
			}
		}
		spans.end(sp)
		reps = append(reps, r)
	}
	return reps
}

// sameOutcome reports whether two runs produced the same simulated
// results.
func sameOutcome(a, b outcome) bool {
	return a.makespan == b.makespan && a.checksum == b.checksum &&
		a.stream == b.stream && a.checks == b.checks && a.failures == b.failures
}

// endToEnd reduces the timed repetitions to the end-to-end metrics:
// medians over repetitions, and for set-up over the extra samples and
// every repetition's own set-up.
func endToEnd(reps []rep, setups []float64) map[string]metricValue {
	if len(reps) == 0 {
		return nil
	}
	var wall, cpu, alloc []float64
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		alloc = append(alloc, float64(r.allocBytes)/1e6)
	}
	return map[string]metricValue{
		"sim_makespan_s": {reps[0].out.makespan.Seconds(), "sim_s"},
		"host_wall_s":    {median(wall), "s"},
		"host_cpu_s":     {median(cpu), "s"},
		"host_alloc_mb":  {median(alloc), "MB"},
		"setup_s":        {median(setups), "s"},
	}
}
