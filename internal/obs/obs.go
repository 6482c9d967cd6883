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
	"fmt"
	"sort"
	"strconv"
	"strings"
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
// additionally turns a live tracer into a zero-cost sink. A tracer
// belongs to one deployment: only that deployment's processes record
// into it, one at a time, so it needs no lock.
type Tracer struct {
	spans []Span
	seq   uint64
	// disabled is set before the simulation runs and never written
	// during it.
	disabled bool
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether recording is on. It is the hot-path gate for
// span call sites: attr slices and Record calls built inside an
// `if t.Enabled() { ... }` statement cost nothing — not even their
// argument construction — when tracing is off or the tracer is nil.
func (t *Tracer) Enabled() bool { return t != nil && !t.disabled }

// SetEnabled turns recording on or off. A disabled tracer drops
// Record and RecordGWork. Flip it only
// while the simulation is quiescent (before Run, or between runs).
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.disabled = !on
}

// Record appends one completed span. start and end must come from the
// virtual clock (or be derived from virtual-clock readings).
//
// Record is on the GWork hot path (a nil or disabled tracer returns
// before touching anything); with tracing on, span storage grows
// amortized — use Reserve to preallocate it when the span count is
// known up front.
func (t *Tracer) Record(track, cat, name string, start, end time.Duration, attrs ...Attr) {
	if !t.Enabled() {
		return
	}
	// Amortized span-storage growth; Reserve preallocates it.
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
	return len(t.spans)
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
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
	if !t.Enabled() {
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

// Metric is one named counter value.
type Metric struct {
	Name  string
	Value int64
}

// Kind is one counter family. The set is closed: every counter a
// registry hands out is a Kind plus a scope index, so the metrics
// grammar is exactly the kinds table below and nothing at a call site
// can name a counter outside it.
type Kind uint8

// The counter families. The cache and mem kinds count one GPU's cache
// and tier events, the xfer kinds its transfer bytes, the sched kinds
// one worker's GWork dispatch, and the stream kinds one pipeline stage.
const (
	CacheHits Kind = iota
	CacheMisses
	CacheInserts
	CacheRejects
	CacheStop
	CacheEvictions
	MemDemotions
	MemPromotions
	MemSpills
	MemReloads
	XferH2DBytes
	XferD2HBytes
	SchedDirect
	SchedPooled
	SchedSteals
	StreamRecords
	StreamBatches
	StreamWindows
	StreamBlockedNs
	StreamGrants
	StreamDepthMax
	numKinds
)

// kinds maps each Kind to its name and the letter of its scope index:
// gpu for a device ID, w for a worker node, s for a stream stage.
var kinds = [numKinds]struct{ name, scope string }{
	CacheHits:       {"cache.hits", "gpu"},
	CacheMisses:     {"cache.misses", "gpu"},
	CacheInserts:    {"cache.inserts", "gpu"},
	CacheRejects:    {"cache.rejects", "gpu"},
	CacheStop:       {"cache.stop", "gpu"},
	CacheEvictions:  {"cache.evictions", "gpu"},
	MemDemotions:    {"mem.demotions", "gpu"},
	MemPromotions:   {"mem.promotions", "gpu"},
	MemSpills:       {"mem.spills", "gpu"},
	MemReloads:      {"mem.reloads", "gpu"},
	XferH2DBytes:    {"xfer.h2d.bytes", "gpu"},
	XferD2HBytes:    {"xfer.d2h.bytes", "gpu"},
	SchedDirect:     {"sched.direct", "w"},
	SchedPooled:     {"sched.pooled", "w"},
	SchedSteals:     {"sched.steals", "w"},
	StreamRecords:   {"stream.records", "s"},
	StreamBatches:   {"stream.batches", "s"},
	StreamWindows:   {"stream.windows", "s"},
	StreamBlockedNs: {"stream.blockedns", "s"},
	StreamGrants:    {"stream.grants", "s"},
	StreamDepthMax:  {"stream.depthmax", "s"},
}

// Registry is a set of named monotonic counters. Like the tracer it is
// nil-safe, and snapshots are sorted so consumers never observe map
// order. A registry belongs to one deployment: only that deployment's
// processes register and read counters, one at a time, so it needs no
// lock. Producers preregister a Counter handle once and bump it
// directly.
type Registry struct {
	handles map[string]*Counter
	// head and tail chain the same handles through their next fields,
	// in registration order, so walks never see map order.
	head, tail *Counter
	// disabled is copied into each handle Counter registers, so a
	// handle registered after SetEnabled(false) starts silenced.
	disabled bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{handles: make(map[string]*Counter)}
}

// Counter is a preregistered handle on one named counter: a direct
// slot pointer, bumped without hashing the name. Safe under the
// cooperative virtual-clock scheduler — exactly one process runs at a
// time, with happens-before edges through every handoff — which is the
// same discipline the stream-worker scratch buffers rely on. A nil
// Counter (from a nil registry) drops writes.
type Counter struct {
	v    int64
	next *Counter // the registry's next handle, in registration order
	// idx and kind name the counter (counterName), so walks need not
	// store the name.
	idx      int32
	kind     Kind
	disabled bool
}

// counterName renders the name of kind k at scope index idx,
// "<kind name>.<scope><idx>".
func counterName(k Kind, idx int) string {
	return kinds[k].name + "." + kinds[k].scope + strconv.Itoa(idx)
}

// Counter returns the handle of kind k at scope index idx, named
// "<kind name>.<scope><idx>" (e.g. "cache.hits.gpu0"). Handles
// registered for the same kind and index share a slot. A kind outside
// the table panics, on a nil registry too. Registering on a nil
// registry returns nil, whose methods are no-ops, so construction-time
// wiring needs no guards.
func (r *Registry) Counter(k Kind, idx int) *Counter {
	if k >= numKinds {
		panic(fmt.Sprintf("obs: counter kind %d is not in the kinds table", k))
	}
	if r == nil {
		return nil
	}
	name := counterName(k, idx)
	if c, ok := r.handles[name]; ok {
		return c
	}
	c := &Counter{idx: int32(idx), kind: k, disabled: r.disabled}
	r.handles[name] = c
	if r.tail != nil {
		r.tail.next = c
	} else {
		r.head = c
	}
	r.tail = c
	return c
}

// Add increments the counter by delta: one predictable branch and one
// integer add on the hot path.
func (c *Counter) Add(delta int64) {
	if c == nil || c.disabled {
		return
	}
	c.v += delta
}

// Max raises the counter to v if v exceeds its current value.
func (c *Counter) Max(v int64) {
	if c == nil || c.disabled {
		return
	}
	if v > c.v {
		c.v = v
	}
}

// Get returns the counter's current value.
func (c *Counter) Get() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// SetEnabled turns recording on or off, including every handle already
// registered. Flip it only while the simulation is quiescent (before
// Run, or between runs): the hot path reads the flag unsynchronized.
func (r *Registry) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.disabled = !on
	for c := r.head; c != nil; c = c.next {
		c.disabled = !on
	}
}

// Get returns the named counter's value (0 when never registered).
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	return r.handles[name].Get()
}

// Total sums every counter whose name starts with prefix — e.g.
// Total("cache.hits") aggregates the per-device "cache.hits.gpuN"
// counters.
func (r *Registry) Total(prefix string) int64 {
	if r == nil {
		return 0
	}
	var n int64
	for c := r.head; c != nil; c = c.next {
		if strings.HasPrefix(counterName(c.kind, int(c.idx)), prefix) {
			n += c.v
		}
	}
	return n
}

// Snapshot returns every nonzero counter sorted by name. A handle that
// was never bumped stays out of the snapshot.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.handles))
	for c := r.head; c != nil; c = c.next {
		if c.v != 0 {
			out = append(out, Metric{Name: counterName(c.kind, int(c.idx)), Value: c.v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
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
