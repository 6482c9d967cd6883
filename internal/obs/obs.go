// Package obs is GFlink's deterministic observability layer: a span
// tracer and a metrics registry threaded through the execution stack
// (GStreamManager, GMemoryManager, the plan layer), exporting Chrome
// trace_event JSON and snapshot-able counters.
//
// Determinism is the design constraint (invariant #8 of DESIGN.md):
// this package holds no time source at all. Every timestamp is a
// virtual-clock duration passed in by the caller, so a trace is a pure
// function of the simulated schedule — byte-identical across runs,
// GOMAXPROCS settings and host machines, and enabling it changes no
// simulated time. The gflink-vet wallclock analyzer guarantees no host
// time can leak in; span sequence numbers are deterministic because
// the virtual clock runs exactly one process at a time.
package obs

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one span annotation (a Chrome trace "args" entry). Values
// must be JSON-marshalable; use the Str/Int/Dur/Bool constructors.
type Attr struct {
	Key string
	Val any
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Val: v} }

// Dur builds a duration attribute, rendered in Go's duration syntax.
func Dur(k string, d time.Duration) Attr { return Attr{Key: k, Val: d.String()} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Val: v} }

// Span is one completed interval on a named track. Tracks are logical
// execution lanes ("driver", "w0/gpu1/s2", ...); the Chrome exporter
// maps them to thread rows.
type Span struct {
	Track string
	Cat   string
	Name  string
	Start time.Duration
	End   time.Duration
	Attrs []Attr
	// Seq is the recording order, deterministic under the cooperative
	// virtual-clock scheduler; the exporter uses it to break Start ties.
	Seq uint64
}

// Dur returns the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer collects spans. All methods are nil-safe no-ops, so producers
// can thread an optional tracer without guards; SetEnabled(false)
// additionally turns a live tracer into a zero-cost sink.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	seq   uint64
	// disabled is set before the simulation runs and never written
	// during it, so the Enabled fast path reads it without the lock.
	disabled bool
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether recording is on. It is the hot-path gate for
// span call sites: the hotalloc analyzer treats the body of an
// `if t.Enabled() { ... }` statement as observability-cold, so attr
// slices and Begin/Record calls built inside one cost nothing — not
// even their argument construction — when tracing is off or the tracer
// is nil.
//
//gflink:hotpath
func (t *Tracer) Enabled() bool { return t != nil && !t.disabled }

// SetEnabled turns recording on or off. A disabled tracer drops
// Record, and Begin hands out the shared no-op OpenSpan. Flip it only
// while the simulation is quiescent (before Run, or between runs):
// the flag is read lock-free on the hot path.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.disabled = !on
}

// Record appends one completed span. start and end must come from the
// virtual clock (or be derived from virtual-clock readings).
//
// Record is on the GWork hot path (a nil or disabled tracer returns
// before touching anything); with tracing on, span storage grows
// amortized — use Reserve to preallocate it when the span count is
// known up front.
//
//gflink:hotpath
func (t *Tracer) Record(track, cat, name string, start, end time.Duration, attrs ...Attr) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	//gflink:allow-alloc amortized span-storage growth; Reserve preallocates it
	t.spans = append(t.spans, Span{
		Track: track, Cat: cat, Name: name,
		Start: start, End: end, Attrs: attrs, Seq: t.seq,
	})
	t.seq++
}

// Reserve grows the span storage to hold at least n more spans without
// reallocating, so a tracing run of known size records allocation-free.
func (t *Tracer) Reserve(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if free := cap(t.spans) - len(t.spans); free < n {
		grown := make([]Span, len(t.spans), len(t.spans)+n)
		copy(grown, t.spans)
		t.spans = grown
	}
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// OpenSpan is a span opened by Tracer.Begin and still awaiting its end
// timestamp. Nothing is recorded until End runs — an OpenSpan that is
// dropped leaves no trace, which is why the gflink-vet spanpair
// analyzer proves every Begin reaches an End (or a visible ownership
// transfer) on all paths out of the opening function.
type OpenSpan struct {
	t     *Tracer
	track string
	cat   string
	name  string
	start time.Duration
	attrs []Attr
}

// noopOpen is the sentinel OpenSpan Begin hands out when tracing is
// off: shared, immutable, and with no tracer attached, so End on it
// returns immediately. Handing out a sentinel instead of nil keeps the
// whole Begin/End pair allocation-free with tracing off without
// forcing call sites to branch.
var noopOpen = &OpenSpan{}

// Begin opens a span at a virtual-clock timestamp. The span is recorded
// when End is called; until then it is invisible to Spans/Len. Begin on
// a nil or disabled tracer returns the shared no-op OpenSpan — zero
// allocations — and End on a nil or no-op OpenSpan is a no-op, so the
// pair is as thread-through-able as Record. Attr arguments still cost
// a variadic slice at the call site even when tracing is off; hot
// paths wrap attr-carrying Begins in an `if t.Enabled()` guard.
//
//gflink:hotpath
func (t *Tracer) Begin(track, cat, name string, start time.Duration, attrs ...Attr) *OpenSpan {
	if !t.Enabled() {
		return noopOpen
	}
	//gflink:allow-alloc tracing-on span shell; the disabled path returns the shared sentinel
	return &OpenSpan{t: t, track: track, cat: cat, name: name, start: start, attrs: attrs}
}

// End completes the span at a virtual-clock timestamp, appending any
// extra attributes after the ones given to Begin. The recording order
// (and with it the span's Seq) is the order of End calls, exactly as if
// the caller had invoked Record at this point. End on a nil or no-op
// OpenSpan touches nothing and allocates nothing.
//
//gflink:hotpath
func (s *OpenSpan) End(end time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	if s.t.Enabled() {
		all := s.attrs
		if len(attrs) > 0 {
			all = append(append([]Attr(nil), s.attrs...), attrs...)
		}
		s.t.Record(s.track, s.cat, s.name, s.start, end, all...)
	}
}

// WorkReport is the per-GWork execution report: where the work ran and
// what each pipeline stage cost. GWork.Report returns it; RecordGWork
// turns it into a span tree.
type WorkReport struct {
	// DeviceID and Worker locate the executing GPU.
	DeviceID int
	Worker   int
	// QueueWait covers submission to pipeline start (GWork Pool time
	// plus device-memory admission).
	QueueWait time.Duration
	// H2D, Kernel and D2H are the three pipeline stage durations.
	H2D, Kernel, D2H time.Duration
	// CacheHits and CacheMisses count the cache-flagged inputs served
	// from (resp. transferred into) the GPU cache.
	CacheHits, CacheMisses int
	// StolenFrom is the device ID whose queue the work was stolen from
	// (Algorithm 5.2), or -1 when it was dispatched normally.
	StolenFrom int
}

// Pipeline returns the summed H2D + kernel + D2H time.
func (r WorkReport) Pipeline() time.Duration { return r.H2D + r.Kernel + r.D2H }

// RecordGWork emits the span tree of one GWork execution: the
// queue-wait on the device's queue track, then the gwork span with its
// H2D → kernel → D2H children on the executing stream's track,
// annotated with device id, cache hits/misses and steal origin.
func (t *Tracer) RecordGWork(streamTrack, queueTrack, name string, submit, start time.Duration, r WorkReport, attrs ...Attr) {
	if t == nil {
		return
	}
	t.Record(queueTrack, "queue", "queue:"+name, submit, start,
		Int("device", int64(r.DeviceID)))
	base := []Attr{
		Int("device", int64(r.DeviceID)),
		Int("worker", int64(r.Worker)),
		Int("cache_hits", int64(r.CacheHits)),
		Int("cache_misses", int64(r.CacheMisses)),
		Int("stolen_from", int64(r.StolenFrom)),
	}
	all := append(base, attrs...)
	t.Record(streamTrack, "gwork", name, start, start+r.Pipeline(), all...)
	t.Record(streamTrack, "stage", "h2d", start, start+r.H2D)
	t.Record(streamTrack, "stage", "kernel", start+r.H2D, start+r.H2D+r.Kernel)
	t.Record(streamTrack, "stage", "d2h", start+r.H2D+r.Kernel, start+r.Pipeline())
}

// SchedulerStats is one snapshot of a GStreamManager's counters:
// direct dispatches to idle streams, GWork Pool enqueues, and steals.
type SchedulerStats struct {
	Direct, Pooled, Steals int64
}

// Metric is one named counter value.
type Metric struct {
	Name  string
	Value int64
}

// Registry is a set of named monotonic counters. Like the tracer it is
// nil-safe, and snapshots are sorted so consumers never observe map
// order. Hot producers preregister a Counter handle once and bump it
// lock-free; ad-hoc producers use Add/Max, which pay a mutex and a map
// probe per call.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	handles  map[string]*Counter
	// disabled is set before the simulation runs and never written
	// during it, so the Enabled fast path reads it without the lock.
	disabled bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]int64), handles: make(map[string]*Counter)}
}

// Counter is a preregistered handle on one named counter: a direct
// slot pointer, bumped without hashing the name or taking the registry
// lock. Safe under the cooperative virtual-clock scheduler — exactly
// one process runs at a time, with happens-before edges through every
// handoff — which is the same discipline the stream-worker scratch
// buffers rely on. A nil Counter (from a nil registry) drops writes.
type Counter struct {
	name     string
	v        int64
	disabled bool
}

// Counter interns name and returns its handle. Handles registered for
// the same name share a slot. Registering on a nil registry returns
// nil, whose methods are no-ops, so construction-time wiring needs no
// guards.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.handles[name]; ok {
		return c
	}
	c := &Counter{name: name, disabled: r.disabled}
	r.handles[name] = c
	return c
}

// Add increments the counter by delta: one predictable branch and one
// integer add on the hot path.
//
//gflink:hotpath
func (c *Counter) Add(delta int64) {
	if c == nil || c.disabled {
		return
	}
	c.v += delta
}

// Max raises the counter to v if v exceeds its current value.
//
//gflink:hotpath
func (c *Counter) Max(v int64) {
	if c == nil || c.disabled {
		return
	}
	if v > c.v {
		c.v = v
	}
}

// Get returns the counter's current value.
//
//gflink:hotpath
func (c *Counter) Get() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Enabled reports whether the registry accepts writes; like
// Tracer.Enabled it is the zero-cost gate for metric call sites that
// would otherwise build names or values just to record them.
//
//gflink:hotpath
func (r *Registry) Enabled() bool { return r != nil && !r.disabled }

// SetEnabled turns recording on or off, including every handle already
// registered. Flip it only while the simulation is quiescent (before
// Run, or between runs): the flag is read lock-free on the hot path.
func (r *Registry) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.disabled = !on
	for _, c := range r.handles { //gflink:unordered — flag write, no observable order
		c.disabled = !on
	}
}

// Add increments the named counter by delta.
//
//gflink:hotpath
func (r *Registry) Add(name string, delta int64) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	//gflink:allow-alloc bounded counter set; steady-state writes hit existing buckets
	r.counters[name] += delta
}

// Max raises the named counter to v if v exceeds its current value — a
// high-watermark gauge (queue depths, buffer occupancy) stored in the
// same namespace-checked counter set as Add.
//
//gflink:hotpath
func (r *Registry) Max(name string, v int64) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v > r.counters[name] {
		//gflink:allow-alloc bounded counter set; steady-state writes hit existing buckets
		r.counters[name] = v
	}
}

// Get returns the named counter's value (0 when never incremented),
// whether it lives in a preregistered handle or the ad-hoc map.
//
//gflink:hotpath
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.handles[name]; ok {
		return c.v + r.counters[name]
	}
	return r.counters[name]
}

// Total sums every counter whose name starts with prefix — e.g.
// Total("cache.hits") aggregates the per-device "cache.hits.gpuN"
// counters.
func (r *Registry) Total(prefix string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for name, v := range r.counters { //gflink:unordered — summing ints
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	for name, c := range r.handles { //gflink:unordered — summing ints
		if strings.HasPrefix(name, prefix) {
			n += c.v
		}
	}
	return n
}

// Snapshot returns every nonzero-or-map-resident counter sorted by
// name, merging preregistered handles with the ad-hoc map. A handle
// that was never bumped stays out of the snapshot, matching the map
// counters' never-incremented behavior.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	totals := make(map[string]int64, len(r.counters)+len(r.handles))
	for name, v := range r.counters { //gflink:unordered — merged into totals, sorted below
		totals[name] = v
	}
	for name, c := range r.handles { //gflink:unordered — merged into totals, sorted below
		if c.v != 0 {
			totals[name] += c.v
		}
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Metric, 0, len(names))
	for _, name := range names {
		out = append(out, Metric{Name: name, Value: totals[name]})
	}
	return out
}

// Observability bundles the tracer and registry one deployment feeds.
// A nil *Observability yields nil components, which are themselves
// no-ops, so observability can be threaded unconditionally.
type Observability struct {
	tracer  *Tracer
	metrics *Registry
}

// New returns a fresh tracer + registry pair.
func New() *Observability {
	return &Observability{tracer: NewTracer(), metrics: NewRegistry()}
}

// Tracer returns the span tracer.
func (o *Observability) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Metrics returns the counter registry.
func (o *Observability) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}
