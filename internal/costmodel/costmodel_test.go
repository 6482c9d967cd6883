package costmodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWorkAddScale(t *testing.T) {
	w := Work{Flops: 2, BytesRead: 3, BytesWritten: 4}
	s := w.Add(w).Scale(0.5)
	if s != w {
		t.Errorf("Add+Scale(0.5) = %+v, want %+v", s, w)
	}
	if w.Bytes() != 7 {
		t.Errorf("Bytes = %v, want 7", w.Bytes())
	}
}

func TestCPUSlotTimeComputeBound(t *testing.T) {
	c := DefaultCPU
	// 1.2 GFLOP of pure compute on a 1.2 GFLOPS core = 1 second, plus
	// 1000 records of overhead.
	got := c.SlotTime(1000, Work{Flops: 1.2e9})
	want := time.Second + 1000*c.RecordOverhead
	if got != want {
		t.Errorf("SlotTime = %v, want %v", got, want)
	}
}

func TestCPUSlotTimeMemoryBound(t *testing.T) {
	c := DefaultCPU
	// 25.6 GB moved at 25.6 GB/s = 1 second even with tiny flops.
	got := c.SlotTime(0, Work{Flops: 1, BytesRead: 25.6e9})
	if got != time.Second {
		t.Errorf("SlotTime = %v, want 1s", got)
	}
}

func TestGPUKernelRoofline(t *testing.T) {
	p := C2050
	// Compute bound: flops/(peak*eff) dominates.
	w := Work{Flops: 1030e9 * 0.25} // exactly one second at 25% efficiency
	got := p.KernelTime(w, 1.0)
	if got != time.Second+p.LaunchOverhead {
		t.Errorf("compute-bound kernel = %v, want 1s+launch", got)
	}
	// Memory bound with coalescing penalty: halving the factor doubles
	// the time.
	wm := Work{BytesRead: 144e9}
	full := p.KernelTime(wm, 1.0) - p.LaunchOverhead
	half := p.KernelTime(wm, 0.5) - p.LaunchOverhead
	if math.Abs(float64(half)/float64(full)-2.0) > 1e-9 {
		t.Errorf("coalescing 0.5 gave ratio %v, want 2.0", float64(half)/float64(full))
	}
}

func TestGPUGenerationOrdering(t *testing.T) {
	// The same compute-heavy kernel must rank P100 < K20 < C2050 and
	// GTX750 roughly equal to C2050 (Fig 8b's ordering).
	w := Work{Flops: 1e12, BytesRead: 1e9}
	tP100 := P100.KernelTime(w, 1)
	tK20 := K20.KernelTime(w, 1)
	tC2050 := C2050.KernelTime(w, 1)
	tGTX := GTX750.KernelTime(w, 1)
	if !(tP100 < tK20 && tK20 < tC2050) {
		t.Errorf("ordering violated: P100=%v K20=%v C2050=%v", tP100, tK20, tC2050)
	}
	ratio := float64(tGTX) / float64(tC2050)
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("GTX750 vs C2050 ratio %v, want ~1", ratio)
	}
}

func TestPCIeMatchesTable2Shape(t *testing.T) {
	p := DefaultPCIe
	mb := func(bytes int64, d time.Duration) float64 {
		return float64(bytes) / d.Seconds() / 1e6
	}
	small := mb(2048, p.GFlinkTransferTime(2048))
	large := mb(1048576, p.GFlinkTransferTime(1048576))
	if small < 500 || small > 1100 {
		t.Errorf("2KiB GFlink bandwidth %.0f MB/s, want ~0.8 GB/s", small)
	}
	if large < 2800 || large > 3100 {
		t.Errorf("1MiB GFlink bandwidth %.0f MB/s, want ~3 GB/s", large)
	}
	// Native beats GFlink for small transfers; they converge for large.
	nSmall := mb(2048, p.TransferTime(2048))
	nLarge := mb(1048576, p.TransferTime(1048576))
	if nSmall <= small {
		t.Errorf("native small %.0f <= gflink small %.0f", nSmall, small)
	}
	if math.Abs(nLarge-large)/nLarge > 0.01 {
		t.Errorf("large transfers should converge: native %.0f vs gflink %.0f", nLarge, large)
	}
}

func TestCoalesceFactor(t *testing.T) {
	if CoalesceFactor("SoA") != 1.0 || CoalesceFactor("AoP") != 1.0 {
		t.Error("columnar layouts must be fully coalesced")
	}
	if CoalesceFactor("AoS") >= 1.0 {
		t.Error("AoS must pay a coalescing penalty")
	}
}

// Property: transfer time is monotone in size and effective bandwidth
// never exceeds peak.
func TestPCIeMonotoneProperty(t *testing.T) {
	p := DefaultPCIe
	f := func(a, b uint32) bool {
		x, y := int64(a%(64<<20))+1, int64(b%(64<<20))+1
		if x > y {
			x, y = y, x
		}
		tx, ty := p.TransferTime(x), p.TransferTime(y)
		if tx > ty {
			return false
		}
		eff := float64(x) / tx.Seconds()
		return eff <= p.PeakGBps*1e9*1.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: KernelTime is monotone in work.
func TestKernelTimeMonotoneProperty(t *testing.T) {
	f := func(flops, bytes uint32, k uint8) bool {
		p := []GPUProfile{GTX750, C2050, K20, P100}[k%4]
		w1 := Work{Flops: float64(flops), BytesRead: float64(bytes)}
		w2 := w1.Scale(2)
		return p.KernelTime(w1, 1) <= p.KernelTime(w2, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiskNetOverheads(t *testing.T) {
	d := DefaultDisk
	if d.ReadTime(150e6) < time.Second {
		t.Error("reading 150MB at 150MB/s should take >= 1s")
	}
	n := DefaultNet
	if n.TransferTime(125e6) < time.Second {
		t.Error("moving 125MB over 1Gbps should take >= 1s")
	}
	m := Default()
	if m.Overheads.JobSubmit <= 0 || m.CPU.Cores != 4 {
		t.Error("default model incomplete")
	}
}
