package gstruct

import (
	"reflect"
	"testing"
)

func projSchema(t *testing.T) *Schema {
	t.Helper()
	return MustNew("Proj", 4,
		Field{Name: "a", Kind: Float32},         // 4 B/elem
		Field{Name: "b", Kind: Float32, Len: 3}, // 12 B/elem
		Field{Name: "c", Kind: Int32},           // 4 B/elem
		Field{Name: "d", Kind: Uint8},           // 1 B/elem
	)
}

func TestColSetBasics(t *testing.T) {
	c := Cols(0, 2)
	if !c.Has(0) || c.Has(1) || !c.Has(2) {
		t.Fatalf("Cols(0,2) membership wrong: %v", c)
	}
	if c.Count() != 2 {
		t.Fatalf("Count = %d, want 2", c.Count())
	}
	if got := c.String(); got != "{0,2}" {
		t.Fatalf("String = %q, want {0,2}", got)
	}
	if ColSet(0) != 0 || c == 0 {
		t.Fatal("Empty wrong")
	}
	if ColRange(1, 3) != Cols(1, 2) {
		t.Fatal("ColRange(1,3) != Cols(1,2)")
	}
}

func TestSchemaColSet(t *testing.T) {
	s := projSchema(t)
	if s.AllCols() != Cols(0, 1, 2, 3) {
		t.Fatalf("AllCols = %v", s.AllCols())
	}
	if !s.Covers(0) || !s.Covers(s.AllCols()) || s.Covers(Cols(0)) {
		t.Fatal("Covers wrong")
	}
	if got := s.ElemBytes(); got != 21 {
		t.Fatalf("ElemBytes = %d, want 21", got)
	}
	if got := s.ProjectedElemBytes(Cols(0, 2)); got != 8 {
		t.Fatalf("ProjectedElemBytes({0,2}) = %d, want 8", got)
	}
	if got := s.ProjectedElemBytes(0); got != 21 {
		t.Fatalf("ProjectedElemBytes(0) = %d, want 21 (zero set = all)", got)
	}
	// SoA with no padding: Size(SoA,n) must equal ElemBytes*n.
	if s.Size(SoA, 7) != 7*s.ElemBytes() {
		t.Fatalf("Size(SoA,7) = %d, want %d", s.Size(SoA, 7), 7*s.ElemBytes())
	}
}

func TestSoAColumnRanges(t *testing.T) {
	s := projSchema(t)
	const n = 10
	// Prefix {a,b}: one zero-offset range.
	got := s.SoAColumnRanges(Cols(0, 1), n)
	want := []SoARange{{Off: 0, Len: 160, PerElem: 16}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("prefix ranges = %+v, want %+v", got, want)
	}
	// Disjoint {a,c}: two ranges with a hole where b lives.
	got = s.SoAColumnRanges(Cols(0, 2), n)
	want = []SoARange{
		{Off: 0, Len: 40, PerElem: 4},
		{Off: 160, Len: 40, PerElem: 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disjoint ranges = %+v, want %+v", got, want)
	}
	// Adjacent {b,c} merge into one range.
	got = s.SoAColumnRanges(Cols(1, 2), n)
	want = []SoARange{{Off: 40, Len: 160, PerElem: 16}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("adjacent ranges = %+v, want %+v", got, want)
	}
	// Zero set = whole buffer.
	got = s.SoAColumnRanges(0, n)
	want = []SoARange{{Off: 0, Len: s.Size(SoA, n), PerElem: s.ElemBytes()}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("all ranges = %+v, want %+v", got, want)
	}
	// Ranges must agree with soaOffset for each selected column start.
	for _, r := range s.SoAColumnRanges(Cols(2), n) {
		if r.Off != s.soaOffset(n, 2, 0, 0) {
			t.Fatalf("range offset %d != soaOffset %d", r.Off, s.soaOffset(n, 2, 0, 0))
		}
	}
}
