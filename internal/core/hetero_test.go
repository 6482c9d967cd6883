package core

import (
	"reflect"
	"testing"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
)

func TestNewHeteroProfilesPerDevice(t *testing.T) {
	g := NewHetero(Config{
		Config: flink.Config{Workers: 2, Model: costmodel.Default()},
	}, [][]costmodel.GPUProfile{
		{costmodel.C2050, costmodel.K20},
		{costmodel.P100},
	})
	if len(g.Managers) != 2 {
		t.Fatalf("managers = %d", len(g.Managers))
	}
	if got := g.Manager(0).Devices[0].Profile.Name; got != "C2050" {
		t.Errorf("w0d0 = %s", got)
	}
	if got := g.Manager(0).Devices[1].Profile.Name; got != "K20" {
		t.Errorf("w0d1 = %s", got)
	}
	if got := g.Manager(1).Devices[0].Profile.Name; got != "P100" {
		t.Errorf("w1d0 = %s", got)
	}
	g.Run(func() {
		// The same compute-bound kernel must run faster on the P100 than
		// on the C2050.
		run := func(worker int) time.Duration {
			w, _, _ := submitSimple(g, worker, 64, 1<<28, false, CacheKey{})
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			return w.Report().Kernel
		}
		c2050 := run(0)
		p100 := run(1)
		if p100 >= c2050 {
			t.Errorf("P100 kernel (%v) not faster than C2050 (%v)", p100, c2050)
		}
	})
}

func TestHeteroCacheCapacityFollowsDevice(t *testing.T) {
	g := NewHetero(Config{
		Config: flink.Config{Workers: 1, Model: costmodel.Default()},
	}, [][]costmodel.GPUProfile{{costmodel.GTX750, costmodel.P100}})
	small := g.Manager(0).Streams.Memory(0).RegionCap()
	big := g.Manager(0).Streams.Memory(1).RegionCap()
	if small >= big {
		t.Errorf("GTX750 region (%d) not smaller than P100's (%d)", small, big)
	}
	g.Run(func() {})
}

// TestNewIsUniformHetero pins New to NewHetero over a uniform profile
// matrix: New fills its defaults (one C2050 per worker, 60% of device
// memory as the cache region) and both constructors then yield the
// same Cfg and the same devices and cache capacities.
func TestNewIsUniformHetero(t *testing.T) {
	base := flink.Config{Workers: 2, Model: costmodel.Default()}
	a := New(Config{Config: base})
	b := NewHetero(Config{
		Config:           base,
		GPUsPerWorker:    1,
		GPUProfile:       costmodel.C2050,
		CacheBytesPerJob: costmodel.C2050.MemBytes * 6 / 10,
	}, [][]costmodel.GPUProfile{{costmodel.C2050}, {costmodel.C2050}})
	if !reflect.DeepEqual(a.Cfg, b.Cfg) {
		t.Errorf("New Cfg = %+v\nNewHetero Cfg = %+v", a.Cfg, b.Cfg)
	}
	for w := range b.Managers {
		ma, mb := a.Manager(w), b.Manager(w)
		if len(ma.Devices) != len(mb.Devices) {
			t.Fatalf("worker %d: %d devices, want %d", w, len(ma.Devices), len(mb.Devices))
		}
		for k, d := range mb.Devices {
			if da := ma.Devices[k]; da.ID != d.ID || da.Profile != d.Profile {
				t.Errorf("w%dd%d: device %d/%s, want %d/%s", w, k, da.ID, da.Profile.Name, d.ID, d.Profile.Name)
			}
			if got, want := ma.Streams.Memory(k).RegionCap(), mb.Streams.Memory(k).RegionCap(); got != want {
				t.Errorf("w%dd%d: region cap %d, want %d", w, k, got, want)
			}
		}
	}
	a.Run(func() {})
	b.Run(func() {})
}

// TestCUDAWrapperChargesControlChannel pins what each CUDA entry point
// charges before its action: one JNI round trip on the control channel,
// the JNI redirect on the transfer channel.
func TestCUDAWrapperChargesControlChannel(t *testing.T) {
	g := newGFlink(1, 1)
	m := costmodel.Default()
	wr := g.Manager(0).Wrapper
	for _, c := range []struct {
		call cudaCall
		want time.Duration
	}{
		{callMalloc, m.Overheads.JNICall},
		{callFree, m.Overheads.JNICall},
		{callHostRegister, m.Overheads.JNICall},
		{callLaunch, m.Overheads.JNICall},
		{callStreamSynchronize, m.Overheads.JNICall},
		{callMemcpyH2D, m.PCIe.JNIRedirect},
		{callMemcpyD2H, m.PCIe.JNIRedirect},
	} {
		if got := wr.charge(c.call); got != c.want {
			t.Errorf("charge(%d) = %v, want %v", c.call, got, c.want)
		}
	}
}
