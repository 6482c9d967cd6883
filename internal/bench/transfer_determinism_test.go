package bench

import (
	"bytes"
	"runtime"
	"testing"

	"gflink/internal/obs"
)

// ablTraceAndTable runs one transfer-channel ablation with tracing and
// returns its rendered table plus the Chrome trace bytes of every
// deployment it built.
func ablTraceAndTable(t *testing.T, id string) (string, []byte) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	tbl, procs := RunTraced(e)
	if len(procs) == 0 {
		t.Fatalf("%s built no deployments", id)
	}
	data, err := obs.ChromeTrace(procs...)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.String(), data
}

// TestTransferAblationsDeterministic extends the byte-identity
// guarantee to the projected transfer path: the projection ablation
// must yield the same table string and the same Chrome trace bytes
// across repeat runs and GOMAXPROCS settings. The CI race job runs this
// with -race.
func TestTransferAblationsDeterministic(t *testing.T) {
	const id = "abl-projection"
	t.Run(id, func(t *testing.T) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		tbl1, trace1 := ablTraceAndTable(t, id)
		runtime.GOMAXPROCS(4)
		tbl4, trace4 := ablTraceAndTable(t, id)
		tblR, traceR := ablTraceAndTable(t, id)
		if tbl1 != tbl4 {
			t.Errorf("%s table differs between GOMAXPROCS=1 and 4:\n%s\nvs\n%s", id, tbl1, tbl4)
		}
		if !bytes.Equal(trace1, trace4) {
			t.Errorf("%s trace differs between GOMAXPROCS=1 and 4", id)
		}
		if tbl4 != tblR || !bytes.Equal(trace4, traceR) {
			t.Errorf("%s differs between repeat runs at the same GOMAXPROCS", id)
		}
	})
}
