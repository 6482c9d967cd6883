package gstruct

import "testing"

// TestColumnAllocatesNothing pins View.Column, a SoA column and a field
// of a one-element AoS view, at zero heap allocations (DESIGN.md
// invariant 10): the GDST fills call it once per column per block.
func TestColumnAllocatesNothing(t *testing.T) {
	s := MustNew("budget", 4, Field{Name: "x", Kind: Float32, Len: 3}, Field{Name: "id", Kind: Int32})
	soa := MustView(s, SoA, make([]byte, s.Size(SoA, 100)), 100)
	aos := MustView(s, AoS, make([]byte, s.Size(AoS, 1)), 1)
	allocs := testing.AllocsPerRun(1000, func() {
		soa.Column(0, Float32)[0] = 1
		soa.Column(1, Int32)[0] = 1
		aos.Column(1, Int32)[0] = 1
	})
	if allocs != 0 {
		t.Fatalf("%.2f heap allocations per three Column calls, want 0", allocs)
	}
}
