package workloads

import (
	"bytes"
	"math"
	"testing"

	"gflink/internal/gstruct"
	"gflink/internal/kernels"
)

// fillSentinel fills a block's bytes and the 64 after them before a
// fill, to show that a body skips no coordinate and writes past none.
const fillSentinel = 0x5a

// kmeansFilled returns an n-point SoA block of p's points ord0, ord0 +
// step, … written by fill, followed by 64 sentinel bytes.
func kmeansFilled(p KMeansParams, fill func(int, gstruct.View, int64, int64), ord0, step int64, n int) []byte {
	schema := kernels.PointSchema(p.D + p.MetaCols)
	size := schema.Size(gstruct.SoA, n)
	backing := bytes.Repeat([]byte{fillSentinel}, size+64)
	fill(0, gstruct.MustView(schema, gstruct.SoA, backing[:size], n), ord0, step)
	return backing
}

// checkKMeansFill holds the fill under body to the Go loop, and the Go
// loop to the per-element oracle, for one block.
func checkKMeansFill(t *testing.T, body string, p KMeansParams, ord0, step int64, n int) {
	t.Helper()
	gen := newKMeansGen(p)
	restore := useKMeansFillBody("go")
	want := kmeansFilled(p, gen.fill, ord0, step, n)
	restore()
	if oracle := kmeansFilled(p, kmeansOracleFill(p), ord0, step, n); !bytes.Equal(want, oracle) {
		t.Fatalf("go: K %d D %d meta %d ord0 %d step %d n %d: bytes differ from the per-element oracle", p.K, p.D, p.MetaCols, ord0, step, n)
	}
	defer useKMeansFillBody(body)()
	got := kmeansFilled(p, gen.fill, ord0, step, n)
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("%s: K %d D %d meta %d ord0 %d step %d n %d: byte %d of %d is %#x, Go loop %#x", body, p.K, p.D, p.MetaCols, ord0, step, n, b, len(want)-64, got[b], want[b])
		}
	}
}

// TestKMeansFillMatchesPortable holds every fill body this CPU has to
// the Go loop, and the Go loop to the per-element oracle: block lengths
// 0-67 (every remainder mod 8) and ones that span several chunks, K
// from 1 through 16, where the AVX-512 body's table is full, and past
// it, where the Go loop writes every column; with and without metadata
// columns, and ordinals that wrap int64.
func TestKMeansFillMatchesPortable(t *testing.T) {
	shapes := []KMeansParams{
		{K: 10, D: 20, Seed: 7},
		{K: 1, D: 1, Seed: 0},
		{K: 3, D: 5, MetaCols: 2, Seed: 11},
		{K: 16, D: 3, MetaCols: 1, Seed: math.MaxUint64},
		{K: 17, D: 4, Seed: 1 << 63},
		{K: 40, D: 32, Seed: 7},
	}
	for _, body := range kmeansFillBodies() {
		t.Run(body, func(t *testing.T) {
			for _, p := range shapes {
				for _, at := range []struct{ ord0, step int64 }{{0, 1}, {12345, 2000}, {1 << 40, 7}, {math.MaxInt64 - 50, 3}} {
					for n := 0; n <= 67; n++ {
						checkKMeansFill(t, body, p, at.ord0, at.step, n)
					}
					for _, n := range []int{fillChunk, 2*fillChunk + 5, 3*fillChunk + 8} {
						checkKMeansFill(t, body, p, at.ord0, at.step, n)
					}
				}
			}
		})
	}
}

// FuzzKMeansFill holds every fill body to the Go loop on random seeds,
// first ordinals, steps, lengths, K, D and metadata column counts.
func FuzzKMeansFill(f *testing.F) {
	f.Add(uint64(7), int64(0), int64(2000), uint16(135), uint8(10), uint8(20), uint8(0))
	f.Add(uint64(math.MaxUint64), int64(math.MaxInt64), int64(1), uint16(15), uint8(16), uint8(1), uint8(3))
	f.Add(uint64(1<<63), int64(-9), int64(-3), uint16(257), uint8(17), uint8(5), uint8(1))
	f.Add(uint64(0), int64(1<<40), int64(1<<33), uint16(8), uint8(40), uint8(32), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, ord0, step int64, n uint16, k, d, meta uint8) {
		p := KMeansParams{K: 1 + int(k%40), D: 1 + int(d%32), MetaCols: int(meta % 4), Seed: seed}
		for _, body := range kmeansFillBodies() {
			checkKMeansFill(t, body, p, ord0, step, int(n%600))
		}
	})
}
