package core

import (
	"strings"
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/vclock"
)

// TestStreamManagerWithoutStealing builds a manager from a StreamConfig
// with NoStealing set and checks the stealing flag's polarity, the
// policy, the streams per GPU and that no observability is wired.
func TestStreamManagerWithoutStealing(t *testing.T) {
	model := costmodel.Default()
	clock := vclock.New()
	wrapper := NewCUDAWrapper(clock, model)
	dev := gpu.NewDevice(clock, 0, 0, costmodel.C2050, model.PCIe)
	mem := NewMemoryManager(dev, wrapper, costmodel.C2050.MemBytes/2, WithPolicy(EvictFIFO))
	m := NewStreamManager(StreamConfig{
		Clock:         clock,
		Wrapper:       wrapper,
		Memories:      []*GMemoryManager{mem},
		StreamsPerGPU: 2,
		Policy:        RoundRobin,
		NoStealing:    true,
	})
	if m.stealing {
		t.Error("NoStealing must disable stealing")
	}
	if m.policy != RoundRobin {
		t.Errorf("policy = %v, want RoundRobin", m.policy)
	}
	if got := len(m.devs[0].streams); got != 2 {
		t.Errorf("streams per GPU = %d, want 2", got)
	}
	if m.tracer != nil || m.metrics != nil {
		t.Error("a StreamConfig without Tracer or Metrics must not wire observability")
	}
	clock.Run(func() {
		m.Close()
		dev.Close()
	})
}

// TestDeploymentObservability drives two GWork through a deployment
// and checks the span tree and the counters the stack emits.
func TestDeploymentObservability(t *testing.T) {
	g := newGFlink(1, 1)
	g.Run(func() {
		key := CacheKey{JobID: 1, Partition: 0, Block: 0}
		w1, _, _ := submitSimple(g, 0, 64, 64, true, key)
		if err := w1.Wait(); err != nil {
			t.Fatal(err)
		}
		w2, _, _ := submitSimple(g, 0, 64, 64, true, key)
		if err := w2.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	spans := g.Obs.Tracer().Spans()
	if len(spans) != 10 {
		t.Fatalf("got %d spans, want 10 (2 GWork x 5 spans)", len(spans))
	}
	cats := map[string]int{}
	for _, s := range spans {
		cats[s.Cat]++
		if !strings.HasPrefix(s.Track, "w0/gpu0/") {
			t.Errorf("span %q on track %q, want a w0/gpu0 track", s.Name, s.Track)
		}
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
	if cats["queue"] != 2 || cats["gwork"] != 2 || cats["stage"] != 6 {
		t.Errorf("span categories = %v, want 2 queue, 2 gwork, 6 stage", cats)
	}
	m := g.Obs.Metrics()
	if got := m.Get("cache.hits.gpu0"); got != 1 {
		t.Errorf("cache.hits.gpu0 = %d, want 1 (second GWork hits)", got)
	}
	if got := m.Get("cache.misses.gpu0"); got != 1 {
		t.Errorf("cache.misses.gpu0 = %d, want 1 (first GWork misses)", got)
	}
	if got := m.Get("cache.inserts.gpu0"); got != 1 {
		t.Errorf("cache.inserts.gpu0 = %d, want 1", got)
	}
	if got := m.Total("sched."); got == 0 {
		t.Error("no scheduler counters recorded")
	}
	direct, pooled := m.Total("sched.direct"), m.Total("sched.pooled")
	if direct+pooled != 2 {
		t.Errorf("sched.direct = %d, sched.pooled = %d, want direct+pooled == 2", direct, pooled)
	}
}
