package gstruct

import (
	"encoding/binary"
	"testing"
)

// refOffset is the tests' own address arithmetic for value idx of
// field of element e: an AoS element is stride bytes with each field at
// its C offset, and a SoA buffer is the fields' columns back to back
// (runningSumSoAOffset), each element's values adjacent in its column.
func refOffset(v View, e, field, idx int) int {
	s, f := v.s, v.s.fields[field]
	if v.layout == AoS {
		return e*s.stride + s.offsets[field] + idx*f.Kind.Size()
	}
	return runningSumSoAOffset(s, v.n, field, e, idx)
}

// refGet reads value idx of field of element e, little-endian, as raw
// bits from refOffset.
func refGet(v View, e, field, idx int) uint64 {
	off := refOffset(v, e, field, idx)
	var x uint64
	for b := v.s.fields[field].Kind.Size() - 1; b >= 0; b-- {
		x = x<<8 | uint64(v.buf[off+b])
	}
	return x
}

// refPut stores the low bytes of x, little-endian, at refOffset.
func refPut(v View, e, field, idx int, x uint64) {
	off := refOffset(v, e, field, idx)
	for b := 0; b < v.s.fields[field].Kind.Size(); b++ {
		v.buf[off+b] = byte(x >> (8 * b))
	}
}

// colBits decodes value i of a column run of the given kind.
func colBits(col []byte, k Kind, i int) uint64 {
	switch k.Size() {
	case 1:
		return uint64(col[i])
	case 4:
		return uint64(binary.LittleEndian.Uint32(col[4*i:]))
	default:
		return binary.LittleEndian.Uint64(col[8*i:])
	}
}

func putColBits(col []byte, k Kind, i int, x uint64) {
	switch k.Size() {
	case 1:
		col[i] = uint8(x)
	case 4:
		binary.LittleEndian.PutUint32(col[4*i:], uint32(x))
	default:
		binary.LittleEndian.PutUint64(col[8*i:], x)
	}
}

// valueBits is a deterministic, kind-width pattern for (e, field, idx)
// whose float encodings are never NaN, so a float round trip keeps the
// bits.
func valueBits(k Kind, salt, e, field, idx int) uint64 {
	x := uint64(salt+1)*0x9e3779b97f4a7c15 ^ uint64(e)<<32 ^ uint64(field)<<16 ^ uint64(idx)
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	switch k.Size() {
	case 1:
		return x & 0xff
	case 4:
		return x & 0xbfff_ffff // exponent never all ones
	default:
		return x &^ (1 << 62)
	}
}

// Bytes written through Column read back identically at the reference
// addresses and the other way round, for every kind, scalar and array
// fields, SoA views of several sizes and AoS views of one element.
func TestColumnMatchesPerElement(t *testing.T) {
	schemas := []*Schema{
		MustNew("AllKinds", 8,
			Field{Name: "u8", Kind: Uint8},
			Field{Name: "i32", Kind: Int32, Len: 3},
			Field{Name: "u32", Kind: Uint32},
			Field{Name: "i64", Kind: Int64, Len: 2},
			Field{Name: "f32", Kind: Float32, Len: 5},
			Field{Name: "f64", Kind: Float64},
			Field{Name: "tag", Kind: Uint8, Len: 3},
		),
		MustNew("Packed", 1,
			Field{Name: "b", Kind: Uint8},
			Field{Name: "d", Kind: Float64, Len: 2},
			Field{Name: "f", Kind: Float32},
		),
		pointSchema(20),
	}
	type shape struct {
		layout Layout
		n      int
	}
	shapes := []shape{{SoA, 0}, {SoA, 1}, {SoA, 3}, {SoA, 17}, {SoA, 409}, {AoS, 1}}
	for _, s := range schemas {
		for _, sh := range shapes {
			for fi, f := range s.fields {
				// Column -> reference.
				v := MustView(s, sh.layout, make([]byte, s.Size(sh.layout, sh.n)), sh.n)
				col := v.Column(fi, f.Kind)
				if want := f.Kind.Size() * f.len() * sh.n; len(col) != want || cap(col) != want {
					t.Fatalf("%s %s n=%d field %q: column len %d cap %d, want %d",
						s.Name(), sh.layout, sh.n, f.Name, len(col), cap(col), want)
				}
				for e := 0; e < sh.n; e++ {
					for idx := 0; idx < f.len(); idx++ {
						putColBits(col, f.Kind, e*f.len()+idx, valueBits(f.Kind, 1, e, fi, idx))
					}
				}
				for e := 0; e < sh.n; e++ {
					for idx := 0; idx < f.len(); idx++ {
						if got, want := refGet(v, e, fi, idx), valueBits(f.Kind, 1, e, fi, idx); got != want {
							t.Fatalf("%s %s n=%d: column write of %q[%d] elem %d read back %#x, want %#x",
								s.Name(), sh.layout, sh.n, f.Name, idx, e, got, want)
						}
					}
				}
				// Reference -> Column, with every other field written too, so a
				// column that strays into a neighbour shows.
				w := MustView(s, sh.layout, make([]byte, s.Size(sh.layout, sh.n)), sh.n)
				for gi, g := range s.fields {
					for e := 0; e < sh.n; e++ {
						for idx := 0; idx < g.len(); idx++ {
							refPut(w, e, gi, idx, valueBits(g.Kind, 2, e, gi, idx))
						}
					}
				}
				col = w.Column(fi, f.Kind)
				for e := 0; e < sh.n; e++ {
					for idx := 0; idx < f.len(); idx++ {
						if got, want := colBits(col, f.Kind, e*f.len()+idx), valueBits(f.Kind, 2, e, fi, idx); got != want {
							t.Fatalf("%s %s n=%d: per-element write of %q[%d] elem %d reads %#x through Column, want %#x",
								s.Name(), sh.layout, sh.n, f.Name, idx, e, got, want)
						}
					}
				}
			}
		}
	}

	s := schemas[0]
	aos := MustView(s, AoS, make([]byte, s.Size(AoS, 2)), 2)
	mustPanic(t, "Column on a two-element AoS view", func() { aos.Column(4, Float32) })
	soa := MustView(s, SoA, make([]byte, s.Size(SoA, 4)), 4)
	mustPanic(t, "Column kind mismatch", func() { soa.Column(4, Float64) })
	mustPanic(t, "Column kind mismatch on one AoS element", func() {
		MustView(s, AoS, make([]byte, s.Size(AoS, 1)), 1).Column(0, Int32)
	})
}
