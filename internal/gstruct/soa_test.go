package gstruct

import (
	"fmt"
	"testing"
)

// runningSumSoAOffset is the SoA address computed the long way: walk every
// preceding field and add its column width. soaOffset must agree with it.
func runningSumSoAOffset(s *Schema, n, field, elem, idx int) int {
	off := 0
	for i := 0; i < field; i++ {
		off += s.fields[i].Kind.Size() * s.fields[i].len() * n
	}
	f := s.fields[field]
	return off + (elem*f.len()+idx)*f.Kind.Size()
}

func TestSoAOffsetMatchesRunningSum(t *testing.T) {
	schemas := []*Schema{
		MustNew("Mixed", 8,
			Field{Name: "a", Kind: Float32},
			Field{Name: "b", Kind: Float64, Len: 3},
			Field{Name: "c", Kind: Uint32},
			Field{Name: "d", Kind: Float32, Len: 5},
			Field{Name: "e", Kind: Float64},
			Field{Name: "f", Kind: Uint32, Len: 2},
		),
		MustNew("Arrays", 4,
			Field{Name: "u", Kind: Uint32, Len: 7},
			Field{Name: "v", Kind: Float64, Len: 2},
			Field{Name: "w", Kind: Float32, Len: 4},
		),
		pointSchema(20),
	}
	for _, s := range schemas {
		for _, n := range []int{0, 1, 3, 17, 1000} {
			elems := []int{0, n / 2, n - 1}
			if n == 0 {
				elems = []int{0}
			}
			for fi, f := range s.fields {
				for _, e := range elems {
					for idx := 0; idx < f.len(); idx++ {
						got, want := s.soaOffset(n, fi, e, idx), runningSumSoAOffset(s, n, fi, e, idx)
						if got != want {
							t.Fatalf("%s n=%d: soaOffset(field %d, elem %d, idx %d) = %d, running sum %d",
								s.Name(), n, fi, e, idx, got, want)
						}
					}
				}
			}
			if got, want := s.Size(SoA, n), runningSumSoAOffset(s, n, len(s.fields)-1, n, 0); got != want {
				t.Errorf("%s n=%d: Size(SoA) = %d, want %d", s.Name(), n, got, want)
			}
		}
	}
}

// pointSchema mirrors kernels.PointSchema (not importable here: kernels
// imports gstruct): d scalar float32 coordinates under pack(4).
func pointSchema(d int) *Schema {
	fields := make([]Field, d)
	for j := range fields {
		fields[j] = Field{Name: fmt.Sprintf("c%d", j), Kind: Float32}
	}
	return MustNew(fmt.Sprintf("Point%d", d), 4, fields...)
}

// BenchmarkPutFloat32AtSoA writes every coordinate of a block of
// 20-dimensional points through a SoA view, the GDST fill the KMeans
// workloads perform; ns/op is per PutFloat32At call.
func BenchmarkPutFloat32AtSoA(b *testing.B) {
	const d, elems = 20, 1 << 12
	s := pointSchema(d)
	v := MustView(s, SoA, make([]byte, s.Size(SoA, elems)), elems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, j := i/d%elems, i%d
		v.PutFloat32At(e, j, 0, float32(i))
	}
}
