package stream

import (
	"math"
	"testing"
)

// TestModulusMatchesRemainder holds the per-stage reduction to plain %
// on both its branches: power-of-two n (mask) and every other n.
func TestModulusMatchesRemainder(t *testing.T) {
	ns := []uint64{1, 2, 3, 1 << 32, 1 << 63, math.MaxUint64}
	xs := []uint64{0, 1, 2, 3, 255, 256, 1<<32 - 1, 1 << 32, 1<<32 + 1,
		1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	for _, n := range ns {
		m := newModulus(n)
		if masked, pow2 := m.n == 0, n&(n-1) == 0; masked != pow2 {
			t.Errorf("newModulus(%d) reduces by mask: %v, want %v", n, masked, pow2)
		}
		for _, x := range append(xs, n-1, n, n+1) {
			if got, want := m.reduce(x), x%n; got != want {
				t.Errorf("reduce(%d) mod %d = %d, want %d", x, n, got, want)
			}
		}
	}
}
