package bench

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"gflink/internal/obs"
)

// backpressureTrace runs abl-backpressure traced and returns the table
// rendering plus the Chrome trace bytes across all six deployments
// (2 placements x 3 buffer limits).
func backpressureTrace(t *testing.T) (string, []byte) {
	t.Helper()
	e, ok := ByID("abl-backpressure")
	if !ok {
		t.Fatal("abl-backpressure not registered")
	}
	tbl, procs := RunTraced(e)
	if len(procs) != 6 {
		t.Fatalf("abl-backpressure built %d deployments, want 6 (2 placements x 3 limits)", len(procs))
	}
	data, err := obs.ChromeTrace(procs...)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.String(), data
}

// TestBackpressureDeterministic: the streaming layer runs entirely on
// the cooperative virtual clock, so both the rendered table and the
// exported trace are byte-identical across GOMAXPROCS settings and
// repeat runs (CI runs this under -race).
func TestBackpressureDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	tbl1, trace1 := backpressureTrace(t)
	runtime.GOMAXPROCS(4)
	tbl4, trace4 := backpressureTrace(t)
	tblR, traceR := backpressureTrace(t)
	if tbl1 != tbl4 {
		t.Error("table differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
	if !bytes.Equal(trace1, trace4) {
		t.Error("trace differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
	if tbl4 != tblR || !bytes.Equal(trace4, traceR) {
		t.Error("output differs between repeat runs at the same GOMAXPROCS")
	}
}

// TestBackpressureTraceContent spot-checks the stream layer's span
// vocabulary in the exported trace.
func TestBackpressureTraceContent(t *testing.T) {
	_, data := backpressureTrace(t)
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	s := string(data)
	for _, want := range []string{
		`"name":"stream:backpressure"`, // pipeline driver span
		`"cat":"stage"`,                // per-stage lifetime spans
		`"cat":"backpressure"`,         // credit-wait spans
		`"cat":"window"`,               // per-window fire spans
		`stream/backpressure/source`,   // stage tracks
		`stream/backpressure/window`,
		`stream/backpressure/sink`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

// TestBackpressureCheckShape: the check accepts the real table and
// rejects empty, non-monotone, and never-blocked fakes.
func TestBackpressureCheckShape(t *testing.T) {
	tbl := runExp(t, "abl-backpressure")
	e, _ := ByID("abl-backpressure")
	if err := e.Check(tbl); err != nil {
		t.Errorf("abl-backpressure check rejected its own table: %v", err)
	}
	if err := e.Check(&Table{}); err == nil {
		t.Error("abl-backpressure check accepted an empty table")
	}
	flat := &Table{
		Rows: [][]string{{"cpu", "1"}},
		Notes: []string{
			"cpu consumer throughput rec/s: b1=1000 b4=1005 b16=1010",
			"gpu consumer throughput rec/s: b1=2000 b4=2400 b16=2400",
			"producer blocked ns at buffer 1: cpu=5000 gpu=5000",
		},
	}
	if err := e.Check(flat); err == nil {
		t.Error("abl-backpressure check accepted a flat cpu curve (b4 < 1.02x b1)")
	}
	regressed := &Table{
		Rows: [][]string{{"cpu", "1"}},
		Notes: []string{
			"cpu consumer throughput rec/s: b1=1000 b4=1500 b16=1200",
			"gpu consumer throughput rec/s: b1=2000 b4=2400 b16=2400",
			"producer blocked ns at buffer 1: cpu=5000 gpu=5000",
		},
	}
	if err := e.Check(regressed); err == nil {
		t.Error("abl-backpressure check accepted a b4->b16 regression")
	}
	neverBlocked := &Table{
		Rows: [][]string{{"cpu", "1"}},
		Notes: []string{
			"cpu consumer throughput rec/s: b1=1000 b4=1500 b16=1500",
			"gpu consumer throughput rec/s: b1=2000 b4=2400 b16=2400",
			"producer blocked ns at buffer 1: cpu=0 gpu=0",
		},
	}
	if err := e.Check(neverBlocked); err == nil {
		t.Error("abl-backpressure check accepted zero blocked time at the smallest limit")
	}
}
