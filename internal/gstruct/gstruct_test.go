package gstruct

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// paperPoint is the Point example from Section 3.5.1 of the paper:
// GStruct_8 { Unsigned32 x; Double64 y; Float32 z; }.
func paperPoint(t *testing.T) *Schema {
	t.Helper()
	s, err := New("Point", 8,
		Field{Name: "x", Kind: Uint32},
		Field{Name: "y", Kind: Float64},
		Field{Name: "z", Kind: Float32},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPaperPointLayout(t *testing.T) {
	s := paperPoint(t)
	// C layout under pack(8): x @0, pad to 8, y @8, z @16, stride 24.
	wantOffsets := []int{0, 8, 16}
	for i, want := range wantOffsets {
		if got := s.offsets[i]; got != want {
			t.Errorf("offset[%d] = %d, want %d", i, got, want)
		}
	}
	if s.Stride() != 24 {
		t.Errorf("stride = %d, want 24", s.Stride())
	}
}

func TestPack4ChangesLayout(t *testing.T) {
	s := MustNew("Point4", 4,
		Field{Name: "x", Kind: Uint32},
		Field{Name: "y", Kind: Float64},
		Field{Name: "z", Kind: Float32},
	)
	// Under pack(4): x @0, y @4 (alignment capped at 4), z @12, stride 16.
	if s.offsets[1] != 4 || s.offsets[2] != 12 || s.Stride() != 16 {
		t.Errorf("pack(4) layout: y@%d z@%d stride=%d, want 4/12/16",
			s.offsets[1], s.offsets[2], s.Stride())
	}
}

func TestByteFieldPadding(t *testing.T) {
	s := MustNew("Mixed", 8,
		Field{Name: "tag", Kind: Uint8},
		Field{Name: "v", Kind: Float64},
		Field{Name: "flag", Kind: Uint8},
	)
	if s.offsets[0] != 0 || s.offsets[1] != 8 || s.offsets[2] != 16 {
		t.Errorf("offsets = %d,%d,%d", s.offsets[0], s.offsets[1], s.offsets[2])
	}
	if s.Stride() != 24 { // tail padded to 8
		t.Errorf("stride = %d, want 24", s.Stride())
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := New("bad", 3, Field{Name: "x", Kind: Int32}); err == nil {
		t.Error("alignment 3 accepted")
	}
	if _, err := New("bad", 8); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := New("bad", 8, Field{Name: "x", Kind: Int32}, Field{Name: "x", Kind: Int32}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := New("bad", 8, Field{Name: "", Kind: Int32}); err == nil {
		t.Error("unnamed field accepted")
	}
	if _, err := New("bad", 8, Field{Name: "a", Kind: Int32, Len: -2}); err == nil {
		t.Error("negative array length accepted")
	}
}

func TestAoSRoundTrip(t *testing.T) {
	s := paperPoint(t)
	const n = 17
	buf := make([]byte, s.Size(AoS, n))
	v := MustView(s, AoS, buf, n)
	for i := 0; i < n; i++ {
		refPut(v, i, 0, 0, uint64(i*3))
		refPut(v, i, 1, 0, math.Float64bits(float64(i)+0.5))
		v.PutFloat32At(i, 2, 0, float32(i)*2)
	}
	for i := 0; i < n; i++ {
		if refGet(v, i, 0, 0) != uint64(i*3) {
			t.Fatalf("x[%d] mismatch", i)
		}
		if refGet(v, i, 1, 0) != math.Float64bits(float64(i)+0.5) {
			t.Fatalf("y[%d] mismatch", i)
		}
		if v.Float32At(i, 2, 0) != float32(i)*2 || refGet(v, i, 2, 0) != uint64(math.Float32bits(float32(i)*2)) {
			t.Fatalf("z[%d] mismatch", i)
		}
	}
}

func TestSoARoundTripAndColumnContiguity(t *testing.T) {
	s := MustNew("P", 8, Field{Name: "a", Kind: Float32}, Field{Name: "b", Kind: Float32})
	const n = 8
	buf := make([]byte, s.Size(SoA, n))
	v := MustView(s, SoA, buf, n)
	for i := 0; i < n; i++ {
		v.PutFloat32At(i, 0, 0, float32(i))
		v.PutFloat32At(i, 1, 0, float32(100+i))
	}
	// Column a occupies the first n*4 bytes, column b the next: verify
	// by reading the raw buffer directly.
	raw := MustView(MustNew("raw", 4, Field{Name: "f", Kind: Float32, Len: 2 * n}), SoA, buf, 1)
	for i := 0; i < n; i++ {
		if raw.Float32At(0, 0, i) != float32(i) {
			t.Fatalf("column a not contiguous at %d", i)
		}
		if raw.Float32At(0, 0, n+i) != float32(100+i) {
			t.Fatalf("column b not contiguous at %d", i)
		}
	}
}

func TestArrayFieldSoAStyle(t *testing.T) {
	// Declaring arrays inside the GStruct makes the layout SoA "just as
	// the columnar format" (Section 3.2).
	const n = 4
	s := MustNew("Cols", 8, Field{Name: "xs", Kind: Float32, Len: n}, Field{Name: "ys", Kind: Float32, Len: n})
	buf := make([]byte, s.Size(AoS, 1))
	v := MustView(s, AoS, buf, 1)
	for i := 0; i < n; i++ {
		v.PutFloat32At(0, 0, i, float32(i))
		v.PutFloat32At(0, 1, i, float32(-i))
	}
	for i := 0; i < n; i++ {
		if v.Float32At(0, 0, i) != float32(i) || v.Float32At(0, 1, i) != float32(-i) {
			t.Fatalf("array field mismatch at %d", i)
		}
	}
	if s.Stride() != 2*n*4 {
		t.Errorf("stride = %d, want %d", s.Stride(), 2*n*4)
	}
}

func TestAoPField(t *testing.T) {
	s := paperPoint(t)
	const n = 5
	sizes := s.AoPSizes(n)
	if sizes[0] != 4*n || sizes[1] != 8*n || sizes[2] != 4*n {
		t.Fatalf("AoPSizes = %v", sizes)
	}
	buf := make([]byte, sizes[2])
	fv, err := AoPField(s, 2, buf, n)
	if err != nil {
		t.Fatal(err)
	}
	fv.PutFloat32At(3, 0, 0, 42.0)
	if fv.Float32At(3, 0, 0) != 42.0 || refGet(fv, 3, 0, 0) != uint64(math.Float32bits(42)) {
		t.Error("AoP field roundtrip failed")
	}
}

func TestViewErrors(t *testing.T) {
	s := paperPoint(t)
	if _, err := NewView(s, AoS, make([]byte, 10), 5); err == nil {
		t.Error("undersized buffer accepted")
	}
	if _, err := NewView(s, AoP, make([]byte, 1000), 5); err == nil {
		t.Error("AoP through NewView accepted")
	}
	v := MustView(s, AoS, make([]byte, s.Size(AoS, 2)), 2)
	mustPanic(t, "out-of-range element", func() { v.Float32At(2, 2, 0) })
	mustPanic(t, "kind mismatch", func() { v.Float32At(0, 1, 0) })
	mustPanic(t, "array index", func() { v.Float32At(0, 2, 1) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestCLayoutRendering(t *testing.T) {
	s := paperPoint(t)
	c := s.CLayout()
	for _, want := range []string{"#pragma pack(8)", "struct Point", "unsigned int x", "double y", "float z", "sizeof = 24"} {
		if !strings.Contains(c, want) {
			t.Errorf("CLayout missing %q:\n%s", want, c)
		}
	}
}

// convert copies every value of src into dst, a view of the same
// schema and length, at the reference addresses.
func convert(dst, src View) {
	for e := 0; e < src.n; e++ {
		for fi, f := range src.s.fields {
			for idx := 0; idx < f.len(); idx++ {
				refPut(dst, e, fi, idx, refGet(src, e, fi, idx))
			}
		}
	}
}

// Property: for random schemas, offsets are aligned, non-overlapping and
// within stride; every view addresses each value where the reference
// arithmetic does; AoS, SoA and AoP round-trip losslessly;
// and for a random column set, SoAColumnRanges covers every byte of the
// selected columns exactly once, with sorted, disjoint, merged ranges
// whose lengths sum to n·ProjectedElemBytes (so no other byte is
// covered).
func TestLayoutInvariantsProperty(t *testing.T) {
	kinds := []Kind{Uint8, Int32, Uint32, Int64, Float32, Float64}
	aligns := []int{1, 2, 4, 8, 16}
	f := func(spec []uint8, alignSel uint8, n uint8, colSel uint64) bool {
		if len(spec) == 0 {
			spec = []uint8{0}
		}
		if len(spec) > 8 {
			spec = spec[:8]
		}
		align := aligns[int(alignSel)%len(aligns)]
		fields := make([]Field, len(spec))
		for i, b := range spec {
			fields[i] = Field{
				Name: string(rune('a' + i)),
				Kind: kinds[int(b)%len(kinds)],
				Len:  int(b%3) + 1,
			}
		}
		s, err := New("R", align, fields...)
		if err != nil {
			return false
		}
		// Offsets aligned and non-overlapping.
		end := 0
		for i, fl := range fields {
			a := fl.Kind.Size()
			if a > align {
				a = align
			}
			off := s.offsets[i]
			if off%a != 0 || off < end {
				return false
			}
			end = off + fl.Kind.Size()*fl.Len
		}
		if s.Stride() < end {
			return false
		}
		cnt := int(n%5) + 1
		each := func(fn func(e, fi, idx int) bool) bool {
			for e := 0; e < cnt; e++ {
				for fi, fl := range fields {
					for idx := 0; idx < fl.Len; idx++ {
						if !fn(e, fi, idx) {
							return false
						}
					}
				}
			}
			return true
		}
		src := MustView(s, AoS, make([]byte, s.Size(AoS, cnt)), cnt)
		each(func(e, fi, idx int) bool {
			refPut(src, e, fi, idx, uint64(e*1000+fi*10+idx+1))
			return true
		})

		// AoS -> SoA -> AoS. Padding bytes are unspecified, so compare
		// values.
		soa := MustView(s, SoA, make([]byte, s.Size(SoA, cnt)), cnt)
		back := MustView(s, AoS, make([]byte, s.Size(AoS, cnt)), cnt)
		convert(soa, src)
		convert(back, soa)
		if !each(func(e, fi, idx int) bool {
			return src.addr(e, fi, idx) == refOffset(src, e, fi, idx) && soa.addr(e, fi, idx) == refOffset(soa, e, fi, idx)
		}) {
			return false
		}
		if !each(func(e, fi, idx int) bool { return refGet(back, e, fi, idx) == refGet(src, e, fi, idx) }) {
			return false
		}

		// AoP: one buffer per field, sized by AoPSizes, holding src's
		// values; back to back they are the SoA buffer. Each round-trips
		// through an AoS view of its own one-field schema.
		var joined []byte
		for fi, size := range s.AoPSizes(cnt) {
			aop, err := AoPField(s, fi, make([]byte, size), cnt)
			if err != nil {
				return false
			}
			for e := 0; e < cnt; e++ {
				for idx := 0; idx < fields[fi].Len; idx++ {
					refPut(aop, e, 0, idx, refGet(src, e, fi, idx))
				}
			}
			aos := MustView(aop.Schema(), AoS, make([]byte, aop.Schema().Size(AoS, cnt)), cnt)
			again := MustView(aop.Schema(), SoA, make([]byte, size), cnt)
			convert(aos, aop)
			convert(again, aos)
			if !bytes.Equal(again.Bytes(), aop.Bytes()) {
				return false
			}
			joined = append(joined, aop.Bytes()...)
		}
		if len(joined) != s.Size(AoP, cnt) || !bytes.Equal(joined, soa.Bytes()) {
			return false
		}

		// SoAColumnRanges against the per-element addresses.
		cols := ColSet(colSel) & s.AllCols()
		sel := cols
		if sel == 0 {
			sel = s.AllCols()
		}
		ranges := s.SoAColumnRanges(cols, cnt)
		total := 0
		for i, r := range ranges {
			if r.Len != r.PerElem*cnt || i > 0 && ranges[i-1].Off+ranges[i-1].Len >= r.Off {
				return false // not sorted, overlapping, or adjacent runs left unmerged
			}
			total += r.Len
		}
		if total != cnt*s.ProjectedElemBytes(cols) {
			return false
		}
		return each(func(e, fi, idx int) bool {
			if !sel.Has(fi) {
				return true
			}
			a := soa.addr(e, fi, idx)
			for b := a; b < a+fields[fi].Kind.Size(); b++ {
				in := 0
				for _, r := range ranges {
					if r.Off <= b && b < r.Off+r.Len {
						in++
					}
				}
				if in != 1 {
					return false
				}
			}
			return true
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
