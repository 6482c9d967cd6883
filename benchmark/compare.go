package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef is one metric definition from BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkDef is the part of BENCHMARK.json the benchmark reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkDef(path string) (benchmarkDef, error) {
	var def benchmarkDef
	data, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// readResults loads every result record from the given -json files.
func readResults(paths []string) ([]result, error) {
	var all []result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rs []result
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		all = append(all, rs...)
	}
	return all, nil
}

// verdict judges one (workload, metric) pair. worse is the head median's
// relative change in the metric's bad direction. A base whose own runs
// spread wider than the bound cannot resolve a change that size, unless
// every head run beats every base run.
func verdict(def metricDef, base, head []float64) (worse float64, v string) {
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	if bmed != 0 {
		worse = sign * (hmed - bmed) / bmed
	}
	spread := 0.0
	if bmed != 0 {
		spread = (bq3 - bq1) / bmed
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return worse, "better"
	case spread > def.Bound:
		return worse, "unresolved"
	case worse > def.Bound:
		return worse, "regression"
	}
	return worse, "ok"
}

// runCompare implements -compare base.json... -- head.json...: one row
// per (workload, end-to-end metric) with each side's quartiles, judged
// against BENCHMARK.json's bounds, plus each workload's error rate. It
// exits non-zero when any metric regresses or the error rate rises.
func runCompare(args []string, boundsPath string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "benchmark: usage: -compare base.json... -- head.json...")
		return 2
	}
	def, err := readBenchmarkDef(boundsPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	base, err := readResults(args[:split])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	head, err := readResults(args[split+1:])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	values := func(rs []result, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	errRate := func(rs []result, workload string) float64 {
		var a, f int
		for _, r := range rs {
			if r.Workload == workload {
				a += r.Attempted
				f += r.Failed
			}
		}
		if a == 0 {
			return 1
		}
		return float64(f) / float64(a)
	}
	seen := map[string]bool{}
	for _, r := range append(append([]result(nil), base...), head...) {
		seen[r.Workload] = true
	}
	names := make([]string, 0, len(seen))
	for w := range seen {
		names = append(names, w)
	}
	sort.Strings(names)

	failed := false
	fmt.Fprintf(stdout, "%-15s %-15s %-6s %10s %10s %10s   %10s %10s %10s %8s  %s\n",
		"workload", "metric", "unit", "base_q1", "base_med", "base_q3", "head_q1", "head_med", "head_q3", "worse", "verdict")
	for _, w := range names {
		for _, m := range def.EndToEnd {
			b, h := values(base, w, m.Name), values(head, w, m.Name)
			if len(b) == 0 || len(h) == 0 {
				fmt.Fprintf(stdout, "%-15s %-15s %-6s missing on one side (%d base, %d head runs)\n", w, m.Name, m.Unit, len(b), len(h))
				failed = true
				continue
			}
			bq1, bmed, bq3 := quartiles(b)
			hq1, hmed, hq3 := quartiles(h)
			worse, v := verdict(m, b, h)
			if v == "regression" {
				failed = true
			}
			fmt.Fprintf(stdout, "%-15s %-15s %-6s %10.4g %10.4g %10.4g   %10.4g %10.4g %10.4g %+7.1f%%  %s\n",
				w, m.Name, m.Unit, bq1, bmed, bq3, hq1, hmed, hq3, 100*worse, v)
		}
		be, he := errRate(base, w), errRate(head, w)
		v := "ok"
		if he > be {
			v = "regression"
			failed = true
		}
		fmt.Fprintf(stdout, "%-15s %-15s %-6s %10.4g %10.4g %10.4g   %10.4g %10.4g %10.4g %8s  %s\n",
			w, "error_rate", "ratio", be, be, be, he, he, he, "", v)
	}
	if failed {
		return 1
	}
	return 0
}
