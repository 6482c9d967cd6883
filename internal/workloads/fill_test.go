package workloads

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
)

// The per-element generators the column fills replaced, kept verbatim
// as the oracle the fills are held to byte for byte.

func kmeansCoord(seed uint64, ord int64, j, k int) float32 {
	center := mix(seed, uint64(ord)) % uint64(k)
	base := unit(seed+uint64(center)*977+uint64(j)*31, 0) * 100
	noise := unit(seed+123457, uint64(ord)*29+uint64(j))*4 - 2
	return base + noise
}

func linregTrueWeights(seed uint64, d int) []float32 {
	w := make([]float32, d+1)
	for j := range w {
		w[j] = unit(seed+555, uint64(j))*2 - 1
	}
	return w
}

func linregSample(seed uint64, truth []float32, ord int64, j, d int) float32 {
	if j < d {
		return unit(seed, uint64(ord)*uint64(d+1)+uint64(j))*2 - 1
	}
	var y float32 = truth[d]
	for jj := 0; jj < d; jj++ {
		y += truth[jj] * (unit(seed, uint64(ord)*uint64(d+1)+uint64(jj))*2 - 1)
	}
	return y + (unit(seed+999, uint64(ord))*0.02 - 0.01)
}

func kmeansOracleFill(p KMeansParams) func(int, gstruct.View, int64, int64) {
	return func(_ int, v gstruct.View, ord0, step int64) {
		for i := 0; i < v.Len(); i++ {
			ord := ord0 + int64(i)*step
			for jj := 0; jj < p.D; jj++ {
				v.PutFloat32At(i, jj, 0, kmeansCoord(p.Seed, ord, jj, p.K))
			}
			for jj := p.D; jj < p.D+p.MetaCols; jj++ {
				v.PutFloat32At(i, jj, 0, unit(p.Seed+777, uint64(ord)*53+uint64(jj)))
			}
		}
	}
}

func linregOracleFill(p LinRegParams) func(int, gstruct.View, int64, int64) {
	truth := linregTrueWeights(p.Seed, p.D)
	return func(_ int, v gstruct.View, ord0, step int64) {
		for i := 0; i < v.Len(); i++ {
			ord := ord0 + int64(i)*step
			for jj := 0; jj <= p.D; jj++ {
				v.PutFloat32At(i, jj, 0, linregSample(p.Seed, truth, ord, jj, p.D))
			}
			for m := 0; m < p.MetaCols; m++ {
				v.PutFloat32At(i, p.D+1+m, 0, unit(p.Seed+888, uint64(ord)*59+uint64(m)))
			}
		}
	}
}

// kmeansClusterSpec is the deployment and job of the benchmark's
// kmeans-cluster workload (Fig 5a's largest point).
func kmeansClusterSpec() (Spec, KMeansParams) {
	spec := Spec{Workers: 10, GPUsPerWorker: 2, Profile: costmodel.C2050, ScaleDivisor: 2000}
	p := KMeansParams{Points: 270_000_000, Iterations: 10, UseCache: true, Seed: 7}
	p.defaults()
	return spec, p
}

// sameBlocks builds two GDSTs of one shape, one per fill, and requires
// their blocks to match in count, size and bytes. It returns the block
// element counts of the first.
func sameBlocks(t *testing.T, spec Spec, schema *gstruct.Schema, nominal int64, par int, fill, oracle func(int, gstruct.View, int64, int64)) []int {
	t.Helper()
	g := spec.Build()
	var sizes []int
	g.Run(func() {
		j := g.Cluster.NewJob("fill")
		got := core.NewGDST(g, j, schema, gstruct.SoA, nominal, par, fill)
		want := core.NewGDST(g, j, schema, gstruct.SoA, nominal, par, oracle)
		defer core.FreeBlocks(got)
		defer core.FreeBlocks(want)
		if got.Partitions() != want.Partitions() {
			t.Fatalf("%d partitions, oracle %d", got.Partitions(), want.Partitions())
		}
		for pi := 0; pi < got.Partitions(); pi++ {
			gb, wb := got.Partition(pi).Items, want.Partition(pi).Items
			if len(gb) != len(wb) {
				t.Fatalf("partition %d: %d blocks, oracle %d", pi, len(gb), len(wb))
			}
			for bi, b := range gb {
				if b.N != wb[bi].N || b.Nominal != wb[bi].Nominal {
					t.Fatalf("partition %d block %d: %d/%d elements, oracle %d/%d", pi, bi, b.N, b.Nominal, wb[bi].N, wb[bi].Nominal)
				}
				if !bytes.Equal(b.Buf.Bytes(), wb[bi].Buf.Bytes()) {
					t.Fatalf("partition %d block %d (%d elements): bytes differ from the per-element oracle", pi, bi, b.N)
				}
				sizes = append(sizes, b.N)
			}
		}
	})
	return sizes
}

// The column fills write exactly the bytes the per-element generators
// wrote, on the benchmark's kmeans-cluster shape with and without
// metadata columns, on a small odd shape whose partitions end in a
// short block, and for linear regression; the CPU path's points and
// samples and the starting centroids match the oracle too.
func TestGDSTFillMatchesPerElement(t *testing.T) {
	spec, base := kmeansClusterSpec()
	for _, meta := range []int{0, 3} {
		p := base
		p.MetaCols = meta
		sameBlocks(t, spec, kernels.PointSchema(p.D+p.MetaCols), p.Points, 0, newKMeansGen(p).fill, kmeansOracleFill(p))
	}

	odd := KMeansParams{Points: 1_000_003, K: 3, D: 5, MetaCols: 2, Seed: 11}
	oddSpec := Spec{Workers: 2, GPUsPerWorker: 1, Profile: costmodel.C2050, ScaleDivisor: 7, PageSize: 1024}
	sizes := sameBlocks(t, oddSpec, kernels.PointSchema(odd.D+odd.MetaCols), odd.Points, 3, newKMeansGen(odd).fill, kmeansOracleFill(odd))
	short := false
	for _, n := range sizes {
		short = short || n != sizes[0]
	}
	if !short {
		t.Errorf("odd shape: every block holds %d elements; want a short last block", sizes[0])
	}

	lr := LinRegParams{Samples: 2_000_000, D: 32, MetaCols: 2, Seed: 3}
	sameBlocks(t, testSpec(2000), kernels.SampleSchemaMeta(lr.D, lr.MetaCols), lr.Samples, 8, newLinRegGen(lr).fill, linregOracleFill(lr))

	// The CPU path generates point ord through point and sample.
	for _, p := range []KMeansParams{base, odd} {
		gen := newKMeansGen(p)
		pt := make([]float32, p.D)
		for ord := int64(0); ord < 4000*2000; ord += 1999 {
			gen.point(ord, pt)
			for j, x := range pt {
				if want := kmeansCoord(p.Seed, ord, j, p.K); x != want {
					t.Fatalf("kmeans point %d coord %d = %v, oracle %v", ord, j, x, want)
				}
			}
		}
		cents := gen.initialCentroids()
		for c := 0; c < p.K; c++ {
			for j := 0; j < p.D; j++ {
				if want := kmeansCoord(p.Seed, int64(c)*7919, j, p.K); cents[c*p.D+j] != want {
					t.Fatalf("initial centroid %d coord %d = %v, oracle %v", c, j, cents[c*p.D+j], want)
				}
			}
		}
	}
	gen, truth := newLinRegGen(lr), linregTrueWeights(lr.Seed, lr.D)
	s := make([]float32, lr.D+1)
	for ord := int64(0); ord < 4000*2000; ord += 1999 {
		gen.sample(ord, s)
		for j, x := range s {
			if want := linregSample(lr.Seed, truth, ord, j, lr.D); x != want {
				t.Fatalf("linreg sample %d value %d = %v, oracle %v", ord, j, x, want)
			}
		}
	}
}

// BenchmarkGDSTFill builds and frees the GDST of the benchmark's
// kmeans-cluster workload (135k real 20-float points in SoA blocks)
// against a warm page pool, under each fill body this CPU has: page
// allocation, clearing and the column fill. ns/float is per generated
// coordinate.
func BenchmarkGDSTFill(b *testing.B) {
	spec, p := kmeansClusterSpec()
	schema := kernels.PointSchema(p.D)
	fill := newKMeansGen(p).fill
	for _, body := range kmeansFillBodies() {
		b.Run(body, func(b *testing.B) {
			defer useKMeansFillBody(body)()
			g := spec.Build()
			g.Run(func() {
				j := g.Cluster.NewJob("fill")
				core.FreeBlocks(core.NewGDST(g, j, schema, gstruct.SoA, p.Points, 0, fill))
				b.ResetTimer()
				var floats int64
				for i := 0; i < b.N; i++ {
					ds := core.NewGDST(g, j, schema, gstruct.SoA, p.Points, 0, fill)
					for pi := 0; pi < ds.Partitions(); pi++ {
						for _, blk := range ds.Partition(pi).Items {
							floats += int64(blk.N * p.D)
						}
					}
					core.FreeBlocks(ds)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(floats), "ns/float")
			})
		})
	}
}

// TestReciprocalMatchesRemainder holds the center draw's reduction to
// plain % at every k from 1 to 64: on 0, MaxUint64, the multiples of k
// nearest them and nearest 2³², each ±1, and on random inputs.
func TestReciprocalMatchesRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := uint64(1); k <= 64; k++ {
		r := newReciprocal(int(k))
		xs := []uint64{0, math.MaxUint64}
		for _, q := range []uint64{1, 2, 1 << 32 / k, math.MaxUint64/k - 1, math.MaxUint64 / k} {
			xs = append(xs, q*k-1, q*k, q*k+1)
		}
		for i := 0; i < 1000; i++ {
			xs = append(xs, rng.Uint64())
		}
		for _, x := range xs {
			if got, want := r.mod(x), x%k; got != want {
				t.Fatalf("k=%d: mod(%d) = %d, want %d", k, x, got, want)
			}
		}
	}
}
