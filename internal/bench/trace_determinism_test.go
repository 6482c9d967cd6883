package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gflink/internal/obs"
)

// fig8aTrace runs fig8a with tracing and returns the Chrome trace
// bytes. fig8a is the golden-trace experiment: two single-node SpMV
// deployments (cached and uncached), so the trace exercises queue
// waits, the three-stage pipeline, cache hit/miss annotations and
// multi-process export.
func fig8aTrace(t *testing.T) []byte {
	t.Helper()
	e, ok := ByID("fig8a")
	if !ok {
		t.Fatal("fig8a not registered")
	}
	_, procs := RunTraced(e)
	if len(procs) != 2 {
		t.Fatalf("fig8a built %d deployments, want 2 (cached + uncached)", len(procs))
	}
	data, err := obs.ChromeTrace(procs...)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFig8aTraceDeterministic is the tentpole guarantee: the span
// stream is a pure function of the simulated schedule, so the exported
// trace is byte-identical across repeat runs and GOMAXPROCS settings
// (the CI race job runs this with -race, catching any unsynchronized
// recording).
func TestFig8aTraceDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	single := fig8aTrace(t)
	runtime.GOMAXPROCS(4)
	multi := fig8aTrace(t)
	repeat := fig8aTrace(t)
	if !bytes.Equal(single, multi) {
		t.Error("trace differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
	if !bytes.Equal(multi, repeat) {
		t.Error("trace differs between repeat runs at the same GOMAXPROCS")
	}
}

// TestGoldenTraceHashes pins the full-workload schedules: the SHA-256
// of the fig8a, abl-backpressure and abl-oocore Chrome traces. The
// fig8a and abl-backpressure hashes were recorded from the harness as
// it stood before its scale multiplier was deleted, run with the
// multiplier at 1: the same program this one runs. The abl-oocore hash
// pins the host-tier path (demotion, spill and promotion inside the
// gstream workers) and was recorded while the workers were still
// coroutines. The fig8a hash was re-recorded when the cost-model
// placer was deleted: its 20 Either stage spans lost three attributes,
// the placement group and the CPU and GPU estimates, and nothing else
// in the trace moved (with those keys deleted from the older trace,
// the two are equal as compact JSON). Any change to a wake order — in
// the vclock or above it — fails here. A change that moves simulated
// behaviour on purpose re-records them and says why.
func TestGoldenTraceHashes(t *testing.T) {
	_, backpressure := backpressureTrace(t)
	_, oocore := oocoreTrace(t)
	for _, c := range []struct {
		id   string
		data []byte
		want string
	}{
		{"fig8a", fig8aTrace(t), "52c38b43e2f1f406ff8c0833028606dae8dfa5630960eab1d9f5143d5679f4a2"},
		{"abl-backpressure", backpressure, "d2c3906ca75d8c2349d6b67fc3cfb0edc600e855e29acd0c8e994a3f448254d6"},
		{"abl-oocore", oocore, "fe139492deaeb225c1030c9165ea5c3ad9414abed137fc9b8960793521f53a5f"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.data)); got != c.want {
			t.Errorf("%s trace sha256 = %s, want %s (%d bytes)", c.id, got, c.want, len(c.data))
		}
	}
}

func TestFig8aTraceSchemaAndContent(t *testing.T) {
	data := fig8aTrace(t)
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	s := string(data)
	for _, want := range []string{
		`"args":{"name":"fig8a#0"}`, // cached deployment's process row
		`"args":{"name":"fig8a#1"}`, // uncached deployment's process row
		`"cat":"queue"`,             // queue-wait spans
		`"cat":"gwork"`,             // per-GWork spans
		`"name":"h2d"`,              // pipeline stage children
		`"name":"kernel"`,
		`"name":"d2h"`,
		`"cache_hits"`, // cache annotations on gwork spans
		`"stolen_from"`,
		`w0/gpu0/s0`, // stream tracks
		`w0/gpu0/queue`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

// TestTracedRunMatchesUntraced pins the "observability changes no
// simulated result" invariant end to end: the rendered table of a
// traced run is identical to an untraced one.
func TestTracedRunMatchesUntraced(t *testing.T) {
	e, ok := ByID("fig8a")
	if !ok {
		t.Fatal("fig8a not registered")
	}
	traced, procs := RunTraced(e)
	plain := runExp(t, "fig8a")
	if traced.String() != plain.String() {
		t.Errorf("traced table differs from untraced:\n%s\nvs\n%s", traced.String(), plain.String())
	}
	total := 0
	for _, p := range procs {
		total += p.Tracer.Len()
	}
	if total == 0 {
		t.Error("traced run recorded no spans")
	}
}
