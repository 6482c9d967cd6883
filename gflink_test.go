package gflink

import (
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
)

// TestPublicAPIEndToEnd drives the whole stack through the facade: a
// GStruct schema, a GDST, the gpuMapPartition operator with a real
// kernel, and result verification — the quickstart example as a test.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := New(Config{
		Config: ClusterConfig{
			Workers:      2,
			Model:        costmodel.Default(),
			ScaleDivisor: 1000,
		},
		GPUsPerWorker: 2,
	})
	const points = 1_000_000
	g.Run(func() {
		job := g.Cluster.NewJob("facade")
		ds := NewGDST(g, job, kernels.Point3Schema, AoS, points, 0,
			func(part int, v gstruct.View, ord0, step int64) {
				for i := 0; i < v.Len(); i++ {
					ord := ord0 + int64(i)*step
					v.PutFloat32At(i, 0, 0, float32(ord%7))
					v.PutFloat32At(i, 1, 0, float32(ord%5))
					v.PutFloat32At(i, 2, 0, float32(ord%3))
				}
			})
		if ds.NominalCount() != points {
			t.Fatalf("nominal = %d", ds.NominalCount())
		}
		out := GPUMapPartition(g, ds, GPUMapSpec{
			Name:      "addPoint",
			Kernel:    kernels.PointAddKernel,
			OutSchema: kernels.Point3Schema,
			OutLayout: AoS,
			Args:      []int64{kernels.F32Arg(1), kernels.F32Arg(2), kernels.F32Arg(3)},
		})
		for p := 0; p < out.Partitions(); p++ {
			for bi, ob := range out.Partition(p).Items {
				ib := ds.Partition(p).Items[bi]
				iv, ov := ib.View(), ob.View()
				for i := 0; i < ib.N; i++ {
					for f, d := range []float32{1, 2, 3} {
						if got, want := ov.Float32At(i, f, 0), iv.Float32At(i, f, 0)+d; got != want {
							t.Fatalf("p%d b%d i%d f%d: %v want %v", p, bi, i, f, got, want)
						}
					}
				}
			}
		}
		FreeBlocks(out)
		FreeBlocks(ds)
	})
}

// TestFacadeSchemaHelpers checks the re-exported schema API and layout
// constants.
func TestFacadeSchemaHelpers(t *testing.T) {
	s, err := NewSchema("T", 8, Field{Name: "a", Kind: gstruct.Float64}, Field{Name: "b", Kind: gstruct.Int32})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stride() != 16 {
		t.Errorf("stride = %d, want 16 (double @0, int @8, pad to 16)", s.Stride())
	}
	if _, err := NewSchema("bad", 5); err == nil {
		t.Error("invalid schema accepted")
	}
	if AoS == SoA || SoA == AoP {
		t.Error("layout constants collide")
	}
	for _, p := range []GPUProfile{GTX750, C2050, K20, P100} {
		if p.Name == "" || p.MemBytes == 0 {
			t.Errorf("profile incomplete: %+v", p)
		}
	}
}

// TestFacadeHetero exercises NewHetero through the facade.
func TestFacadeHetero(t *testing.T) {
	g := NewHetero(Config{
		Config: ClusterConfig{Workers: 1, Model: costmodel.Default()},
	}, [][]GPUProfile{{C2050, P100}})
	if g.Manager(0).Devices[1].Profile.Name != "P100" {
		t.Error("hetero profile not applied")
	}
	g.Run(func() {})
}
