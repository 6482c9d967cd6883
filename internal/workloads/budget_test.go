package workloads

import (
	"testing"

	"gflink/internal/gstruct"
	"gflink/internal/kernels"
)

// TestGDSTFillAllocatesNothing pins the KMeans fill, under every body
// this CPU has, and the LinReg fill at zero heap allocations per block
// (DESIGN.md invariant 10), metadata columns included.
func TestGDSTFillAllocatesNothing(t *testing.T) {
	km := KMeansParams{Points: 1_000_000, K: 10, D: 4, MetaCols: 2, Seed: 7}
	km.defaults()
	lr := LinRegParams{Samples: 1_000_000, D: 8, MetaCols: 2, Seed: 3}
	for _, body := range kmeansFillBodies() {
		t.Run("kmeans/"+body, func(t *testing.T) {
			defer useKMeansFillBody(body)()
			fillAllocs(t, kernels.PointSchema(km.D+km.MetaCols), newKMeansGen(km).fill)
		})
	}
	t.Run("linreg", func(t *testing.T) {
		fillAllocs(t, kernels.SampleSchemaMeta(lr.D, lr.MetaCols), newLinRegGen(lr).fill)
	})
}

// fillAllocs runs fill over one SoA block of s, advancing the first
// ordinal each call, and fails on any heap allocation.
func fillAllocs(t *testing.T, s *gstruct.Schema, fill func(int, gstruct.View, int64, int64)) {
	t.Helper()
	const n = 1000
	v := gstruct.MustView(s, gstruct.SoA, make([]byte, s.Size(gstruct.SoA, n)), n)
	ord := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		fill(0, v, ord, 3)
		ord += 3 * n
	})
	if allocs != 0 {
		t.Fatalf("%.2f heap allocations per %d-element block, want 0", allocs, n)
	}
}
