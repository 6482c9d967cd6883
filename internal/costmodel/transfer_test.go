package costmodel

import "testing"

// TestProjectedH2DFlipsPlacement builds a transfer-bound stage whose
// GPU estimate loses to the CPU at full H2D volume but wins once the
// kernel's declared read set shrinks the shipped bytes — the Auto-flip
// the plan layer relies on.
func TestProjectedH2DFlipsPlacement(t *testing.T) {
	m := Default()
	s := StageCost{
		Records:      1_000_000,
		CPUPerRec:    Work{Flops: 40, BytesRead: 40},
		GPUWork:      Work{Flops: 4e8, BytesRead: 4e8},
		HostToDevice: 1 << 30,
		DeviceToHost: 1 << 10,
	}
	cpu := m.EstimateCPUStage(s)
	full := m.EstimateGPUStage(C2050, s)
	if full <= cpu {
		t.Fatalf("fixture broken: full-volume GPU estimate %v should lose to CPU %v", full, cpu)
	}
	s.ProjectedH2D = 1 << 26 // 64 MiB of 1 GiB actually read
	proj := m.EstimateGPUStage(C2050, s)
	if proj >= full {
		t.Fatalf("projected estimate %v did not drop below full %v", proj, full)
	}
	if proj >= cpu {
		t.Fatalf("projected GPU estimate %v should now beat CPU %v", proj, cpu)
	}
}

// TestProjectedH2DNeverInflates pins that a projected volume larger
// than the full volume (a kernel reading beyond the block — impossible,
// but defensive) is ignored.
func TestProjectedH2DNeverInflates(t *testing.T) {
	m := Default()
	s := StageCost{GPUWork: Work{Flops: 1e6}, HostToDevice: 1 << 20}
	base := m.EstimateGPUStage(C2050, s)
	s.ProjectedH2D = 1 << 24
	if got := m.EstimateGPUStage(C2050, s); got != base {
		t.Fatalf("oversized ProjectedH2D changed estimate: %v != %v", got, base)
	}
}
