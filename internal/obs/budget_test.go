package obs

import "testing"

// TestCounterAddAllocatesNothing pins a live counter's Add, Max and
// Get, a disabled one's Add and a read by name at zero heap
// allocations (DESIGN.md invariant 10).
func TestCounterAddAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	live := r.Counter(CacheHits, 3)
	off := NewRegistry()
	dead := off.Counter(CacheHits, 3)
	off.SetEnabled(false)
	allocs := testing.AllocsPerRun(1000, func() {
		live.Add(1 << 20)
		live.Max(1 << 30)
		dead.Add(1 << 20)
		live.Get()
		r.Get("cache.hits.gpu3")
	})
	if allocs != 0 {
		t.Fatalf("%.2f heap allocations per Add/Max/Get, want 0", allocs)
	}
}

// TestRecordAllocatesNothingWhenOff pins Record and RecordGWork at zero
// heap allocations with tracing off, on a nil tracer and on a disabled
// one, with the attributes built before the call as a caller outside
// an Enabled gate would.
func TestRecordAllocatesNothingWhenOff(t *testing.T) {
	var none *Tracer
	off := NewTracer()
	off.SetEnabled(false)
	attrs := []Attr{Int("records", 1<<20), Str("placed", "gpu")}
	r := WorkReport{DeviceID: 1, StolenFrom: -1, CacheHits: 300}
	allocs := testing.AllocsPerRun(1000, func() {
		none.Record("w0/gpu0/s0", "stage", "h2d", 1, 2, attrs...)
		off.Record("w0/gpu0/s0", "stage", "h2d", 1, 2, attrs...)
		none.RecordGWork("w0/gpu0/s0", "w0/gpu0/queue", "kmeans", 1, 2, r, attrs...)
		off.RecordGWork("w0/gpu0/s0", "w0/gpu0/queue", "kmeans", 1, 2, r, attrs...)
	})
	if allocs != 0 {
		t.Fatalf("%.2f heap allocations per untraced Record and RecordGWork, want 0", allocs)
	}
}
