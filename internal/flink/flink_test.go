package flink

import (
	"reflect"
	"testing"
	"time"

	"gflink/internal/costmodel"
)

func testCluster(workers int) *Cluster {
	return NewCluster(Config{
		Workers: workers,
		Model:   costmodel.Default(),
	})
}

func TestClusterDefaults(t *testing.T) {
	c := testCluster(3)
	if c.Cfg.SlotsPerWorker != 4 {
		t.Errorf("slots per worker = %d, want 4 (CPU cores)", c.Cfg.SlotsPerWorker)
	}
	if c.Parallelism() != 12 {
		t.Errorf("parallelism = %d, want 12", c.Parallelism())
	}
	if len(c.TaskManagers) != 3 {
		t.Errorf("task managers = %d", len(c.TaskManagers))
	}
}

func TestJobSubmitCharged(t *testing.T) {
	c := testCluster(1)
	end := c.Clock.Run(func() {
		c.NewJob("noop")
	})
	if end != c.Cfg.Model.Overheads.JobSubmit {
		t.Errorf("submission cost %v, want %v", end, c.Cfg.Model.Overheads.JobSubmit)
	}
}

func TestGenerateDistribution(t *testing.T) {
	c := NewCluster(Config{Workers: 2, Model: costmodel.Default(), ScaleDivisor: 10})
	c.Clock.Run(func() {
		j := c.NewJob("gen")
		ds := Generate(j, "nums", 1000, 8, 4, func(p int, ord int64) int64 { return ord })
		if ds.Partitions() != 4 {
			t.Fatalf("partitions = %d", ds.Partitions())
		}
		if ds.NominalCount() != 1000 {
			t.Errorf("nominal = %d", ds.NominalCount())
		}
		if ds.RealCount() != 100 {
			t.Errorf("real = %d, want 100 (scale 10)", ds.RealCount())
		}
		// Partitions alternate workers.
		if ds.Partition(0).Worker != 0 || ds.Partition(1).Worker != 1 || ds.Partition(2).Worker != 0 {
			t.Error("round-robin worker assignment broken")
		}
	})
}

func TestMapTransformsAndCharges(t *testing.T) {
	c := testCluster(1)
	perRec := costmodel.Work{Flops: 100}
	var elapsed time.Duration
	c.Clock.Run(func() {
		j := c.NewJob("map")
		ds := Generate(j, "nums", 400, 8, 4, func(p int, ord int64) int64 { return ord })
		t0 := c.Clock.Now()
		out := Map(ds, "double", perRec, 8, func(v int64) int64 { return v * 2 })
		elapsed = c.Clock.Now() - t0
		for p := 0; p < out.Partitions(); p++ {
			in, o := ds.Partition(p), out.Partition(p)
			for i := range in.Items {
				if o.Items[i] != in.Items[i]*2 {
					t.Fatalf("map result wrong at %d/%d", p, i)
				}
			}
		}
	})
	// 4 tasks of 100 nominal records on 4 slots, all parallel:
	// deploy + slot time.
	want := c.Cfg.Model.Overheads.TaskDeploy + c.Cfg.Model.CPU.SlotTime(100, perRec.Scale(100))
	if elapsed != want {
		t.Errorf("map wave took %v, want %v", elapsed, want)
	}
}

func TestSlotContentionSerializesTasks(t *testing.T) {
	// 8 partitions on a 1-worker (4 slots) cluster: two waves.
	c := testCluster(1)
	perRec := costmodel.Work{Flops: 1.2e5} // 100us per 1000 records... per record 1.2e5 flops
	var elapsed time.Duration
	c.Clock.Run(func() {
		j := c.NewJob("waves")
		ds := Generate(j, "n", 8000, 8, 8, func(p int, ord int64) int64 { return ord })
		t0 := c.Clock.Now()
		Map(ds, "busy", perRec, 8, func(v int64) int64 { return v })
		elapsed = c.Clock.Now() - t0
	})
	one := c.Cfg.Model.CPU.SlotTime(1000, perRec.Scale(1000))
	if elapsed < 2*one {
		t.Errorf("8 tasks on 4 slots took %v, want >= %v (two waves)", elapsed, 2*one)
	}
	if elapsed > 3*one {
		t.Errorf("8 tasks on 4 slots took %v, too slow vs wave time %v", elapsed, one)
	}
}

func TestFilterAdjustsNominal(t *testing.T) {
	c := testCluster(1)
	c.Clock.Run(func() {
		j := c.NewJob("filter")
		ds := Generate(j, "n", 1000, 8, 2, func(p int, ord int64) int64 { return ord })
		out := Filter(ds, "even", costmodel.Work{}, func(v int64) bool { return v%2 == 0 })
		if got := out.NominalCount(); got != 500 {
			t.Errorf("filtered nominal = %d, want 500", got)
		}
	})
}

func TestReduceByKeyWordCountSemantics(t *testing.T) {
	c := testCluster(2)
	words := []string{"a", "b", "a", "c", "b", "a"}
	type wc struct {
		Word  string
		Count int64
	}
	c.Clock.Run(func() {
		j := c.NewJob("wc")
		ds := Generate(j, "words", int64(len(words)), 16, 3, func(p int, ord int64) wc {
			return wc{Word: words[(int64(p)*2+ord)%int64(len(words))], Count: 1}
		})
		// Deterministic known input instead: build explicit partitions.
		parts := []Partition[wc]{
			{Worker: 0, Items: []wc{{"a", 1}, {"b", 1}}, Nominal: 2},
			{Worker: 1, Items: []wc{{"a", 1}, {"c", 1}}, Nominal: 2},
			{Worker: 0, Items: []wc{{"b", 1}, {"a", 1}}, Nominal: 2},
		}
		ds = FromPartitions(j, 16, parts)
		out := ReduceByKey(ds, "count", costmodel.Work{},
			func(v wc) string { return v.Word },
			func(a, b wc) wc { return wc{Word: a.Word, Count: a.Count + b.Count} })
		got := map[string]int64{}
		for _, v := range Collect(out) {
			got[v.Word] += v.Count
		}
		if want := map[string]int64{"a": 3, "b": 2, "c": 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("counts = %v, want %v", got, want)
		}
	})
}

func TestShuffleCostsTime(t *testing.T) {
	// A reduce over many distinct keys on a 2-worker cluster must spend
	// network time; the same reduce with everything on one worker and
	// one partition must not.
	c := NewCluster(Config{Workers: 2, Model: costmodel.Default(), ScaleDivisor: 1000})
	var withNet time.Duration
	c.Clock.Run(func() {
		j := c.NewJob("shuffle")
		ds := Generate(j, "n", 1_000_000, 64, 4, func(p int, ord int64) int64 { return ord })
		t0 := c.Clock.Now()
		ReduceByKey(ds, "ident", costmodel.Work{}, func(v int64) int64 { return v }, func(a, b int64) int64 { return a })
		withNet = c.Clock.Now() - t0
	})
	tr, by := c.Net.Stats()
	if tr == 0 || by == 0 {
		t.Fatalf("shuffle moved no bytes (transfers=%d bytes=%d)", tr, by)
	}
	if withNet < c.Cfg.Model.Net.TransferTime(by/4) {
		t.Errorf("shuffle time %v implausibly small for %d bytes", withNet, by)
	}
}

func TestCollectGathersInOrder(t *testing.T) {
	c := testCluster(2)
	c.Clock.Run(func() {
		j := c.NewJob("collect")
		ds := Generate(j, "n", 40, 8, 4, func(p int, ord int64) int64 { return int64(p)*1000 + ord })
		got := Collect(ds)
		if len(got) != int(ds.RealCount()) {
			t.Fatalf("collected %d items", len(got))
		}
		idx := 0
		for p := 0; p < ds.Partitions(); p++ {
			for _, v := range ds.Partition(p).Items {
				if got[idx] != v {
					t.Fatalf("order mismatch at %d", idx)
				}
				idx++
			}
		}
	})
}

func TestHDFSRoundTrip(t *testing.T) {
	c := testCluster(2)
	c.Clock.Run(func() {
		c.FS.Create("in", 64<<20)
		j := c.NewJob("io")
		ds, err := ReadHDFS(j, "in", 4, 64, func(split int, ord int64) int64 { return ord })
		if err != nil {
			t.Fatal(err)
		}
		if ds.NominalCount() != (64<<20)/64 {
			t.Errorf("nominal records = %d", ds.NominalCount())
		}
	})
}

func TestReadHDFSMissingFile(t *testing.T) {
	c := testCluster(1)
	c.Clock.Run(func() {
		j := c.NewJob("io")
		if _, err := ReadHDFS(j, "nope", 1, 8, func(int, int64) int64 { return 0 }); err == nil {
			t.Error("reading a missing file succeeded")
		}
	})
}

func TestMoreWorkersFinishFaster(t *testing.T) {
	run := func(workers int) time.Duration {
		c := NewCluster(Config{Workers: workers, Model: costmodel.Default(), ScaleDivisor: 100_000})
		perRec := costmodel.Work{Flops: 1e4}
		var elapsed time.Duration
		c.Clock.Run(func() {
			j := c.NewJob("scale")
			ds := Generate(j, "n", 40_000_000, 8, workers*4, func(p int, ord int64) int64 { return ord })
			t0 := c.Clock.Now()
			Map(ds, "work", perRec, 8, func(v int64) int64 { return v })
			elapsed = c.Clock.Now() - t0
		})
		return elapsed
	}
	t1, t4 := run(1), run(4)
	ratio := float64(t1) / float64(t4)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("1->4 worker speedup = %.2f, want ~4 (t1=%v t4=%v)", ratio, t1, t4)
	}
}

func TestBroadcastMovesBytes(t *testing.T) {
	c := testCluster(3)
	c.Clock.Run(func() {
		c.NewJob("misc").Broadcast(1 << 20)
	})
	if _, by := c.Net.Stats(); by != 2<<20 {
		t.Errorf("broadcast to 2 peers moved %d bytes, want %d", by, 2<<20)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() time.Duration {
		c := NewCluster(Config{Workers: 2, Model: costmodel.Default(), ScaleDivisor: 100})
		return c.Clock.Run(func() {
			j := c.NewJob("det")
			ds := Generate(j, "n", 100000, 16, 8, func(p int, ord int64) int64 { return ord % 97 })
			out := ReduceByKey(ds, "mod", costmodel.Work{Flops: 50}, func(v int64) int64 { return v }, func(a, b int64) int64 { return a + b })
			Collect(out)
		})
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic job time: %v vs %v", a, b)
	}
}
