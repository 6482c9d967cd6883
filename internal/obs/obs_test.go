package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTracerRecordsInOrder(t *testing.T) {
	tr := NewTracer()
	tr.Record("driver", "plan", "a", 10, 20, Str("k", "v"))
	tr.Record("driver", "plan", "b", 5, 8)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	a := spans[0]
	if a.Name != "a" || a.Track != "driver" || a.Cat != "plan" ||
		a.Start != 10 || a.End != 20 || a.Seq != 0 {
		t.Errorf("span a = %+v", a)
	}
	if a.Dur() != 10 {
		t.Errorf("a.Dur() = %v, want 10", a.Dur())
	}
	if len(a.Attrs) != 1 || a.Attrs[0].Key != "k" || a.Attrs[0].Val != "v" {
		t.Errorf("a.Attrs = %+v", a.Attrs)
	}
	if spans[1].Seq != 1 {
		t.Errorf("b.Seq = %d, want 1", spans[1].Seq)
	}
	// Spans returns a copy: mutating it must not affect the tracer.
	spans[0].Name = "mutated"
	if tr.Spans()[0].Name != "a" {
		t.Error("Spans() aliases internal storage")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Record("x", "y", "z", 0, 1)
	tr.RecordGWork("s", "q", "w", 0, 1, WorkReport{})
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil tracer is not a no-op")
	}
	var r *Registry
	c := r.Counter(CacheHits, 0)
	if c != nil {
		t.Error("nil registry handed out a live counter")
	}
	c.Add(1)
	c.Max(2)
	if c.Get() != 0 || r.Get("c") != 0 || r.Total("c") != 0 || r.Snapshot() != nil {
		t.Error("nil registry is not a no-op")
	}
	var o *Observability
	if o.Tracer() != nil || o.Metrics() != nil {
		t.Error("nil observability must yield nil components")
	}
	// And the nil components those getters return must themselves be
	// usable, closing the chain.
	o.Tracer().Record("x", "y", "z", 0, 1)
	o.Metrics().Counter(CacheHits, 0).Add(1)
}

func TestAttrConstructors(t *testing.T) {
	if a := Str("s", "v"); a.Val != "v" {
		t.Errorf("Str = %+v", a)
	}
	if a := Int("i", 7); a.Val != int64(7) {
		t.Errorf("Int = %+v", a)
	}
	if a := Dur("d", 1500*time.Millisecond); a.Val != "1.5s" {
		t.Errorf("Dur = %+v", a)
	}
	if a := Bool("b", true); a.Val != true {
		t.Errorf("Bool = %+v", a)
	}
}

func TestRecordGWorkSpanTree(t *testing.T) {
	tr := NewTracer()
	r := WorkReport{
		DeviceID: 3, Worker: 1,
		QueueWait: 5, H2D: 10, Kernel: 20, D2H: 7,
		CacheHits: 2, CacheMisses: 1, StolenFrom: 2,
	}
	if r.Pipeline() != 37 {
		t.Fatalf("Pipeline() = %v, want 37", r.Pipeline())
	}
	tr.RecordGWork("w0/gpu3/s0", "w0/gpu3/queue", "saxpy", 100, 105, r, Int("job", 9))
	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5 (queue, gwork, h2d, kernel, d2h)", len(spans))
	}
	q := spans[0]
	if q.Name != "queue:saxpy" || q.Track != "w0/gpu3/queue" || q.Cat != "queue" ||
		q.Start != 100 || q.End != 105 {
		t.Errorf("queue span = %+v", q)
	}
	g := spans[1]
	if g.Name != "saxpy" || g.Track != "w0/gpu3/s0" || g.Cat != "gwork" ||
		g.Start != 105 || g.End != 105+37 {
		t.Errorf("gwork span = %+v", g)
	}
	want := []Attr{
		Int("device", 3), Int("worker", 1),
		Int("cache_hits", 2), Int("cache_misses", 1),
		Int("stolen_from", 2), Int("job", 9),
	}
	got := map[string]any{}
	for _, a := range g.Attrs {
		got[a.Key] = a.Val
	}
	for _, w := range want {
		if got[w.Key] != w.Val {
			t.Errorf("gwork attr %s = %v, want %v", w.Key, got[w.Key], w.Val)
		}
	}
	// The stage children tile [start, start+Pipeline] exactly.
	stages := spans[2:]
	names := []string{"h2d", "kernel", "d2h"}
	cursor := time.Duration(105)
	durs := []time.Duration{10, 20, 7}
	for i, s := range stages {
		if s.Name != names[i] || s.Cat != "stage" || s.Track != "w0/gpu3/s0" {
			t.Errorf("stage %d = %+v", i, s)
		}
		if s.Start != cursor || s.Dur() != durs[i] {
			t.Errorf("stage %s spans [%v,%v], want start %v dur %v", s.Name, s.Start, s.End, cursor, durs[i])
		}
		cursor = s.End
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	hits0 := r.Counter(CacheHits, 0)
	if again := r.Counter(CacheHits, 0); again != hits0 {
		t.Error("two handles for one kind and index must share a slot")
	}
	hits0.Add(3)
	r.Counter(CacheHits, 1).Add(4)
	r.Counter(CacheMisses, 0).Add(1)
	r.Counter(CacheHits, 0).Add(2)
	r.Counter(SchedDirect, 0) // registered, never bumped
	if got := r.Get("cache.hits.gpu0"); got != 5 {
		t.Errorf("Get = %d, want 5", got)
	}
	if got := r.Get("absent"); got != 0 {
		t.Errorf("Get(absent) = %d, want 0", got)
	}
	depth := r.Counter(StreamDepthMax, 1)
	depth.Max(4)
	depth.Max(2)
	if got := depth.Get(); got != 4 {
		t.Errorf("Max kept %d, want the high watermark 4", got)
	}
	if got := r.Total("cache.hits"); got != 9 {
		t.Errorf("Total(cache.hits) = %d, want 9", got)
	}
	if got := r.Total("cache"); got != 10 {
		t.Errorf("Total(cache) = %d, want 10", got)
	}
	snap := r.Snapshot()
	want := []Metric{
		{"cache.hits.gpu0", 5}, {"cache.hits.gpu1", 4},
		{"cache.misses.gpu0", 1}, {"stream.depthmax.s1", 4},
	}
	if !slices.Equal(snap, want) {
		t.Errorf("Snapshot = %v, want %v (sorted, never-bumped handles left out)", snap, want)
	}
}

// TestCounterNames pins the metrics grammar: every Kind registered at
// scope index 3, read back sorted. A change to the kinds table shows up
// here as a diff of this list.
func TestCounterNames(t *testing.T) {
	r := NewRegistry()
	for k := Kind(0); k < numKinds; k++ {
		r.Counter(k, 3).Add(1)
	}
	var got []string
	for _, m := range r.Snapshot() {
		got = append(got, m.Name)
	}
	want := []string{
		"cache.evictions.gpu3",
		"cache.hits.gpu3",
		"cache.inserts.gpu3",
		"cache.misses.gpu3",
		"cache.rejects.gpu3",
		"cache.stop.gpu3",
		"mem.demotions.gpu3",
		"mem.promotions.gpu3",
		"mem.reloads.gpu3",
		"mem.spills.gpu3",
		"sched.direct.w3",
		"sched.pooled.w3",
		"sched.steals.w3",
		"stream.batches.s3",
		"stream.blockedns.s3",
		"stream.depthmax.s3",
		"stream.grants.s3",
		"stream.records.s3",
		"stream.windows.s3",
		"xfer.d2h.bytes.gpu3",
		"xfer.h2d.bytes.gpu3",
	}
	if !slices.Equal(got, want) {
		t.Errorf("counter names = %q, want %q", got, want)
	}
}

// TestCounterKindOutOfRange checks that a Kind outside the table panics
// at registration, on a live and on a nil registry.
func TestCounterKindOutOfRange(t *testing.T) {
	for i, r := range []*Registry{NewRegistry(), nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registry %d: Counter(numKinds, 0) did not panic", i)
				}
			}()
			r.Counter(numKinds, 0)
		}()
	}
}

// TestRegistrySetEnabled checks that SetEnabled(false) silences handles
// registered both before and after the flip, and that turning the
// registry back on revives them.
func TestRegistrySetEnabled(t *testing.T) {
	r := NewRegistry()
	before := r.Counter(SchedDirect, 0)
	r.SetEnabled(false)
	after := r.Counter(SchedPooled, 0)
	before.Add(1)
	after.Add(1)
	after.Max(7)
	if r.Total("sched") != 0 || len(r.Snapshot()) != 0 {
		t.Errorf("disabled registry recorded: %v", r.Snapshot())
	}
	r.SetEnabled(true)
	before.Add(1)
	after.Add(2)
	if before.Get() != 1 || after.Get() != 2 {
		t.Errorf("re-enabled handles = %d, %d, want 1, 2", before.Get(), after.Get())
	}
}

func traceFixture() *Tracer {
	tr := NewTracer()
	tr.Record("driver", "plan", "plan:x", 0, 100, Str("mode", "gpu"))
	tr.RecordGWork("w0/gpu0/s0", "w0/gpu0/queue", "k1", 10, 12,
		WorkReport{DeviceID: 0, QueueWait: 2, H2D: 3, Kernel: 5, D2H: 1, StolenFrom: -1})
	return tr
}

func TestChromeTraceValidatesAndIsDeterministic(t *testing.T) {
	a, err := ChromeTrace(TraceProcess{Name: "p", Tracer: traceFixture()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(a); err != nil {
		t.Fatalf("self-emitted trace fails validation: %v", err)
	}
	b, err := ChromeTrace(TraceProcess{Name: "p", Tracer: traceFixture()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("identical span streams serialized differently")
	}
	for _, want := range []string{
		`"name":"process_name"`, `"name":"thread_name"`,
		`"name":"queue:k1"`, `"ph":"X"`, `"cat":"gwork"`,
	} {
		if !strings.Contains(string(a), want) {
			t.Errorf("trace missing %s", want)
		}
	}
	// An empty trace still carries the traceEvents array.
	empty, err := ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(empty); err != nil {
		t.Errorf("empty trace invalid: %v", err)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, TraceProcess{Name: "p", Tracer: traceFixture()}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	for _, c := range []struct{ label, data string }{
		{"not json", `{`},
		{"no traceEvents", `{}`},
		{"missing name", `{"traceEvents":[{"ph":"X","ts":0,"pid":0,"tid":0}]}`},
		{"negative ts", `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"pid":0,"tid":0}]}`},
		{"negative dur", `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":-2,"pid":0,"tid":0}]}`},
		{"missing pid", `{"traceEvents":[{"name":"a","ph":"X","ts":0,"tid":0}]}`},
		{"missing tid", `{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":0}]}`},
		{"bad phase", `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0}]}`},
		{"unknown meta", `{"traceEvents":[{"name":"other","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"x"}}]}`},
		{"meta no args", `{"traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0}]}`},
		{"meta empty name", `{"traceEvents":[{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":""}}]}`},
	} {
		if err := ValidateChromeTrace([]byte(c.data)); err == nil {
			t.Errorf("%s: validation passed, want error", c.label)
		}
	}
}
