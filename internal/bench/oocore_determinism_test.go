package bench

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"gflink/internal/obs"
)

// oocoreTrace runs abl-oocore with tracing and returns the rendered
// table plus the Chrome trace bytes of every deployment the sweep
// built (one per workload x factor x policy cell).
func oocoreTrace(t *testing.T) (string, []byte) {
	t.Helper()
	e, ok := ByID("abl-oocore")
	if !ok {
		t.Fatal("abl-oocore not registered")
	}
	tbl, procs := RunTraced(e)
	want := 2 * len(oocoreFactors) * len(oocorePolicies)
	if len(procs) != want {
		t.Fatalf("abl-oocore built %d deployments, want %d (2 workloads x %d factors x %d policies)",
			len(procs), want, len(oocoreFactors), len(oocorePolicies))
	}
	data, err := obs.ChromeTrace(procs...)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.String(), data
}

// TestOocoreDeterministic pins the tiered subsystem's determinism for
// every eviction policy at once: the abl-oocore sweep (which runs all
// four policies through demotion, spill and promotion) must render a
// byte-identical table and a byte-identical trace across repeat runs
// and GOMAXPROCS settings. The CI race job runs this with -race.
func TestOocoreDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	tblSingle, trSingle := oocoreTrace(t)
	runtime.GOMAXPROCS(4)
	tblMulti, trMulti := oocoreTrace(t)
	tblRepeat, trRepeat := oocoreTrace(t)
	if tblSingle != tblMulti {
		t.Error("abl-oocore table differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
	if tblMulti != tblRepeat {
		t.Error("abl-oocore table differs between repeat runs")
	}
	if !bytes.Equal(trSingle, trMulti) {
		t.Error("abl-oocore trace differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
	if !bytes.Equal(trMulti, trRepeat) {
		t.Error("abl-oocore trace differs between repeat runs")
	}
}

// TestOocoreTraceMemTrack checks the tier's spans land on the gpu<d>/mem
// track with the demote/spill/promote/reload phase names.
func TestOocoreTraceMemTrack(t *testing.T) {
	_, data := oocoreTrace(t)
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	s := string(data)
	for _, want := range []string{
		`gpu0/mem`,
		`"name":"demote"`,
		`"name":"spill"`,
		`"name":"promote"`,
		`"name":"reload"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("abl-oocore trace missing %s", want)
		}
	}
}
