// Package gstruct implements GFlink's GStruct abstraction: C-style
// struct schemas whose raw-byte layout in off-heap buffers matches the
// layout of the corresponding CUDA struct exactly, so blocks can be
// DMA'd to the device without serialization, deserialization, or any
// transformation (Section 3.5.1 and Section 4 of the paper).
//
// A Schema is declared from ordered fields of primitive kinds
// (Unsigned32, Float32, Double64, ...) plus a pack alignment (the
// GStruct_8 suffix in the paper's example is an 8-byte alignment).
// Field offsets follow C layout rules under #pragma pack(align).
//
// Three data layouts are supported (Section 2.1): Array-of-Structures
// (AoS, the default), Structure-of-Arrays (SoA, the columnar format
// produced by declaring array fields), and Array-of-Primitives (AoP,
// each field in its own buffer).
package gstruct

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Kind enumerates the primitive data types GFlink defines to mirror
// CUDA types (the paper's Unsigned32, Float32, Double64 families).
type Kind uint8

// Primitive kinds.
const (
	Uint8 Kind = iota
	Int32
	Uint32
	Int64
	Float32
	Float64
)

// Size returns the storage size of the kind in bytes.
func (k Kind) Size() int {
	switch k {
	case Uint8:
		return 1
	case Int32, Uint32, Float32:
		return 4
	case Int64, Float64:
		return 8
	default:
		panic(fmt.Sprintf("gstruct: unknown kind %d", k))
	}
}

// String returns the CUDA-C spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Uint8:
		return "unsigned char"
	case Int32:
		return "int"
	case Uint32:
		return "unsigned int"
	case Int64:
		return "long long"
	case Float32:
		return "float"
	case Float64:
		return "double"
	default:
		return "?"
	}
}

// Layout selects how elements are arranged in memory.
type Layout uint8

// Supported layouts.
const (
	AoS Layout = iota // interleaved structs (row format)
	SoA               // one contiguous column per field
	AoP               // one buffer per field (see Schema.AoPSizes)
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case AoS:
		return "AoS"
	case SoA:
		return "SoA"
	case AoP:
		return "AoP"
	default:
		return "?"
	}
}

// Field is one member of a GStruct, in declaration (@StructField order)
// position. Len > 1 declares a fixed-size array member.
type Field struct {
	Name string
	Kind Kind
	Len  int // array length; 0 or 1 means scalar
}

func (f Field) len() int {
	if f.Len < 1 {
		return 1
	}
	return f.Len
}

// Schema is an immutable GStruct definition: ordered fields plus a pack
// alignment. Construct with New.
type Schema struct {
	name    string
	align   int // pack alignment: 1, 2, 4, 8 or 16
	fields  []Field
	offsets []int // AoS offsets
	stride  int   // AoS element stride including tail padding
	// soaCol[i] is the per-element byte width of fields 0..i-1, so field
	// i's SoA column in an n-element buffer starts at soaCol[i]*n; the
	// last entry is the whole element's width.
	soaCol []int
}

// New builds a schema named name with the given pack alignment and
// fields. It validates field names (unique, non-empty), array lengths
// and the alignment value.
func New(name string, align int, fields ...Field) (*Schema, error) {
	switch align {
	case 1, 2, 4, 8, 16:
	default:
		return nil, fmt.Errorf("gstruct: invalid alignment %d (want 1,2,4,8,16)", align)
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("gstruct: schema %q has no fields", name)
	}
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("gstruct: schema %q has an unnamed field", name)
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("gstruct: schema %q duplicates field %q", name, f.Name)
		}
		if f.Len < 0 {
			return nil, fmt.Errorf("gstruct: field %q has negative array length", f.Name)
		}
		seen[f.Name] = true
	}
	s := &Schema{name: name, align: align, fields: append([]Field(nil), fields...)}
	s.computeLayout()
	return s, nil
}

// MustNew is New panicking on error, for static schema declarations.
func MustNew(name string, align int, fields ...Field) *Schema {
	s, err := New(name, align, fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// computeLayout assigns C offsets under #pragma pack(s.align).
func (s *Schema) computeLayout() {
	s.offsets = make([]int, len(s.fields))
	s.soaCol = make([]int, len(s.fields)+1)
	off := 0
	maxAlign := 1
	for i, f := range s.fields {
		a := f.Kind.Size()
		if a > s.align {
			a = s.align
		}
		if a > maxAlign {
			maxAlign = a
		}
		off = roundUp(off, a)
		s.offsets[i] = off
		off += f.Kind.Size() * f.len()
		s.soaCol[i+1] = s.soaCol[i] + f.Kind.Size()*f.len()
	}
	s.stride = roundUp(off, maxAlign)
}

func roundUp(x, a int) int { return (x + a - 1) / a * a }

// Name returns the schema name.
func (s *Schema) Name() string { return s.name }

// Align returns the pack alignment.
func (s *Schema) Align() int { return s.align }

// NumFields returns the number of declared fields.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns field i in declaration order.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// FieldIndex resolves a field name to its declaration index; ok is
// false for unknown names.
func (s *Schema) FieldIndex(name string) (int, bool) {
	for i, f := range s.fields {
		if f.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Stride returns the AoS element size including padding — the sizeof of
// the matching CUDA struct.
func (s *Schema) Stride() int { return s.stride }

// OffsetAoS returns the byte offset of field i within one AoS element —
// the offsetof of the matching CUDA struct member.
func (s *Schema) OffsetAoS(i int) int { return s.offsets[i] }

// Size returns the buffer size in bytes needed to hold n elements under
// the given layout. For AoP it is the sum of the per-field buffers (see
// AoPSizes for the split).
func (s *Schema) Size(layout Layout, n int) int {
	switch layout {
	case AoS:
		return s.stride * n
	case SoA, AoP:
		return s.ElemBytes() * n
	default:
		panic("gstruct: unknown layout")
	}
}

// AoPSizes returns the per-field buffer sizes for n elements under AoP.
func (s *Schema) AoPSizes(n int) []int {
	out := make([]int, len(s.fields))
	for i, f := range s.fields {
		out[i] = f.Kind.Size() * f.len() * n
	}
	return out
}

// soaOffset returns the byte offset of (field, elem, idx) in a single
// SoA buffer of n elements.
func (s *Schema) soaOffset(n, field, elem, idx int) int {
	f := s.fields[field]
	return s.soaCol[field]*n + (elem*f.len()+idx)*f.Kind.Size()
}

// MaxCols is the maximum number of fields a ColSet can address.
const MaxCols = 64

// ColSet is a bitmask of field indices over a schema with at most
// MaxCols fields. The zero value means "all columns" wherever a ColSet
// qualifies a transfer or cache entry, so existing call sites that
// never heard of projection keep their semantics.
type ColSet uint64

// Cols builds a ColSet from field indices.
func Cols(idx ...int) ColSet {
	var c ColSet
	for _, i := range idx {
		if i < 0 || i >= MaxCols {
			panic(fmt.Sprintf("gstruct: column index %d out of range [0,%d)", i, MaxCols))
		}
		c |= 1 << uint(i)
	}
	return c
}

// ColRange selects fields [lo, hi) — the common "prefix of the schema"
// read sets kernels declare.
func ColRange(lo, hi int) ColSet {
	var c ColSet
	for i := lo; i < hi; i++ {
		c |= 1 << uint(i)
	}
	return c
}

// Has reports whether field i is in the set.
func (c ColSet) Has(i int) bool { return i >= 0 && i < MaxCols && c&(1<<uint(i)) != 0 }

// Count returns the number of selected fields.
func (c ColSet) Count() int {
	n := 0
	for x := uint64(c); x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Empty reports whether no field is selected.
func (c ColSet) Empty() bool { return c == 0 }

// String renders the set as a sorted index list, e.g. "{0,1,5}".
func (c ColSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := 0; i < MaxCols; i++ {
		if c.Has(i) {
			if !first {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", i)
			first = false
		}
	}
	b.WriteByte('}')
	return b.String()
}

// AllCols returns the set selecting every field of s.
func (s *Schema) AllCols() ColSet {
	return ColRange(0, len(s.fields))
}

// Covers reports whether c selects every field of s (the degenerate
// projection that ships the whole buffer). The zero ColSet also covers,
// by the "zero means all" convention.
func (s *Schema) Covers(c ColSet) bool {
	return c == 0 || c&s.AllCols() == s.AllCols()
}

// ElemBytes returns the per-element byte footprint under SoA (the sum
// of all column widths; SoA has no padding, so Size(SoA,n) ==
// ElemBytes()*n).
func (s *Schema) ElemBytes() int { return s.soaCol[len(s.fields)] }

// ProjectedElemBytes returns the per-element byte footprint of the
// selected columns under SoA. A zero set means all columns.
func (s *Schema) ProjectedElemBytes(c ColSet) int {
	if c == 0 {
		return s.ElemBytes()
	}
	total := 0
	for i, f := range s.fields {
		if c.Has(i) {
			total += f.Kind.Size() * f.len()
		}
	}
	return total
}

// SoARange is one contiguous byte range of an SoA buffer covering a run
// of adjacent selected columns. Off and Len are byte positions in a
// buffer holding the n elements passed to SoAColumnRanges; PerElem is
// the per-element width of the run, so the same run in a buffer of m
// elements spans PerElem*m bytes.
type SoARange struct {
	Off     int
	Len     int
	PerElem int
}

// SoAColumnRanges returns the contiguous byte ranges of an n-element
// SoA buffer that hold the selected columns, merging adjacent selected
// fields into single ranges (SoA stores columns consecutively in
// declaration order with no padding). A zero set means all columns and
// yields one range covering the whole buffer. Selecting a prefix of the
// schema therefore yields exactly one range starting at offset 0 — the
// zero-copy case.
func (s *Schema) SoAColumnRanges(c ColSet, n int) []SoARange {
	if c == 0 {
		c = s.AllCols()
	}
	var out []SoARange
	off := 0
	for i, f := range s.fields {
		w := f.Kind.Size() * f.len()
		if c.Has(i) {
			if len(out) > 0 && out[len(out)-1].Off+out[len(out)-1].Len == off {
				r := &out[len(out)-1]
				r.Len += w * n
				r.PerElem += w
			} else {
				out = append(out, SoARange{Off: off, Len: w * n, PerElem: w})
			}
		}
		off += w * n
	}
	return out
}

// CLayout renders the schema as the CUDA-C struct definition a kernel
// author would declare, documenting the byte-exact contract between the
// off-heap buffer and device code.
func (s *Schema) CLayout() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#pragma pack(%d)\nstruct %s {\n", s.align, s.name)
	for i, f := range s.fields {
		if f.len() > 1 {
			fmt.Fprintf(&b, "    %s %s[%d]; // offset %d\n", f.Kind, f.Name, f.len(), s.offsets[i])
		} else {
			fmt.Fprintf(&b, "    %s %s; // offset %d\n", f.Kind, f.Name, s.offsets[i])
		}
	}
	fmt.Fprintf(&b, "}; // sizeof = %d\n", s.stride)
	return b.String()
}

// View is a typed window over a raw buffer holding n elements of a
// schema in a given layout. Views perform bounds-checked little-endian
// access, mirroring how CUDA kernels would address the same bytes.
type View struct {
	s      *Schema
	layout Layout
	n      int
	buf    []byte
}

// NewView wraps buf as n elements of s laid out per layout. The buffer
// must be at least s.Size(layout, n) bytes. AoP is not addressable
// through a single View; use per-field views via AoPField.
func NewView(s *Schema, layout Layout, buf []byte, n int) (View, error) {
	if layout == AoP {
		return View{}, fmt.Errorf("gstruct: AoP needs per-field buffers; use AoPField")
	}
	if need := s.Size(layout, n); len(buf) < need {
		return View{}, fmt.Errorf("gstruct: buffer %d bytes, need %d for %d %s elements of %s", len(buf), need, n, layout, s.name)
	}
	return View{s: s, layout: layout, n: n, buf: buf}, nil
}

// MustView is NewView panicking on error.
func MustView(s *Schema, layout Layout, buf []byte, n int) View {
	v, err := NewView(s, layout, buf, n)
	if err != nil {
		panic(err)
	}
	return v
}

// Len returns the element count of the view.
func (v View) Len() int { return v.n }

// Schema returns the schema the view addresses.
func (v View) Schema() *Schema { return v.s }

// Layout returns the view's layout.
func (v View) Layout() Layout { return v.layout }

// Bytes returns the underlying raw buffer (the exact bytes a DMA would
// move).
func (v View) Bytes() []byte { return v.buf }

// addr computes the byte offset of (elem, field, idx), bounds-checked.
func (v View) addr(elem, field, idx int) int {
	if elem < 0 || elem >= v.n {
		panic(fmt.Sprintf("gstruct: element %d out of range [0,%d)", elem, v.n))
	}
	f := v.s.fields[field]
	if idx < 0 || idx >= f.len() {
		panic(fmt.Sprintf("gstruct: index %d out of range for field %q[%d]", idx, f.Name, f.len()))
	}
	switch v.layout {
	case AoS:
		return elem*v.s.stride + v.s.offsets[field] + idx*f.Kind.Size()
	case SoA:
		return v.s.soaOffset(v.n, field, elem, idx)
	default:
		panic("gstruct: unsupported layout")
	}
}

func (v View) kindCheck(field int, k Kind) {
	if got := v.s.fields[field].Kind; got != k {
		panic(fmt.Sprintf("gstruct: field %q is %s, accessed as %s", v.s.fields[field].Name, got, k))
	}
}

// Float32At reads field (by index) of element elem; idx addresses array
// fields and must be 0 for scalars.
func (v View) Float32At(elem, field, idx int) float32 {
	v.kindCheck(field, Float32)
	off := v.addr(elem, field, idx)
	return math.Float32frombits(binary.LittleEndian.Uint32(v.buf[off:]))
}

// PutFloat32At writes field of element elem.
func (v View) PutFloat32At(elem, field, idx int, x float32) {
	v.kindCheck(field, Float32)
	off := v.addr(elem, field, idx)
	binary.LittleEndian.PutUint32(v.buf[off:], math.Float32bits(x))
}

// Float64At reads a Double64 field.
func (v View) Float64At(elem, field, idx int) float64 {
	v.kindCheck(field, Float64)
	off := v.addr(elem, field, idx)
	return math.Float64frombits(binary.LittleEndian.Uint64(v.buf[off:]))
}

// PutFloat64At writes a Double64 field.
func (v View) PutFloat64At(elem, field, idx int, x float64) {
	v.kindCheck(field, Float64)
	off := v.addr(elem, field, idx)
	binary.LittleEndian.PutUint64(v.buf[off:], math.Float64bits(x))
}

// Uint32At reads an Unsigned32 field.
func (v View) Uint32At(elem, field, idx int) uint32 {
	v.kindCheck(field, Uint32)
	off := v.addr(elem, field, idx)
	return binary.LittleEndian.Uint32(v.buf[off:])
}

// PutUint32At writes an Unsigned32 field.
func (v View) PutUint32At(elem, field, idx int, x uint32) {
	v.kindCheck(field, Uint32)
	off := v.addr(elem, field, idx)
	binary.LittleEndian.PutUint32(v.buf[off:], x)
}

// Int32At reads an Int32 field.
func (v View) Int32At(elem, field, idx int) int32 {
	v.kindCheck(field, Int32)
	off := v.addr(elem, field, idx)
	return int32(binary.LittleEndian.Uint32(v.buf[off:]))
}

// PutInt32At writes an Int32 field.
func (v View) PutInt32At(elem, field, idx int, x int32) {
	v.kindCheck(field, Int32)
	off := v.addr(elem, field, idx)
	binary.LittleEndian.PutUint32(v.buf[off:], uint32(x))
}

// Int64At reads an Int64 field.
func (v View) Int64At(elem, field, idx int) int64 {
	v.kindCheck(field, Int64)
	off := v.addr(elem, field, idx)
	return int64(binary.LittleEndian.Uint64(v.buf[off:]))
}

// PutInt64At writes an Int64 field.
func (v View) PutInt64At(elem, field, idx int, x int64) {
	v.kindCheck(field, Int64)
	off := v.addr(elem, field, idx)
	binary.LittleEndian.PutUint64(v.buf[off:], uint64(x))
}

// Uint8At reads a byte field.
func (v View) Uint8At(elem, field, idx int) uint8 {
	v.kindCheck(field, Uint8)
	return v.buf[v.addr(elem, field, idx)]
}

// PutUint8At writes a byte field.
func (v View) PutUint8At(elem, field, idx int, x uint8) {
	v.kindCheck(field, Uint8)
	v.buf[v.addr(elem, field, idx)] = x
}

// AoPField wraps one field's standalone buffer (the AoP layout) as a
// single-field SoA view so the same accessors work.
func AoPField(s *Schema, field int, buf []byte, n int) (View, error) {
	f := s.fields[field]
	sub, err := New(s.name+"."+f.Name, s.align, f)
	if err != nil {
		return View{}, err
	}
	return NewView(sub, SoA, buf, n)
}

// Convert re-encodes src (any layout) into dst (any layout); both views
// must share the schema and element count. It is the transformation
// GFlink performs when a kernel prefers a different layout than the
// cached one — and the cost the user-defined layout lets applications
// avoid.
func Convert(dst, src View) error {
	if dst.s != src.s {
		return fmt.Errorf("gstruct: convert across schemas %q -> %q", src.s.name, dst.s.name)
	}
	if dst.n != src.n {
		return fmt.Errorf("gstruct: convert %d elements into view of %d", src.n, dst.n)
	}
	for e := 0; e < src.n; e++ {
		for fi, f := range src.s.fields {
			for idx := 0; idx < f.len(); idx++ {
				so := src.addr(e, fi, idx)
				do := dst.addr(e, fi, idx)
				copy(dst.buf[do:do+f.Kind.Size()], src.buf[so:so+f.Kind.Size()])
			}
		}
	}
	return nil
}
