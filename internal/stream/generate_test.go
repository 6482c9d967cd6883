package stream

import (
	"math"
	"testing"
)

// generateKeys are the key counts the generate tests draw with: powers
// of two, which take the mask loop and its bodies, and 1000, which
// takes the scalar % loop.
var generateKeys = []uint64{1, 2, 1024, 1 << 20, 1000}

// gamma is splitmix64's golden gamma, the step between two records'
// states. It is a variable so products with it wrap instead of
// overflowing a constant.
var gamma uint64 = 0x9e3779b97f4a7c15

// generateSeeds are the states the generate tests draw from. The state
// wraps uint64 within a record or two of any seed, since γ is 0.62 of
// 2^64; MaxUint64 wraps on the first record.
var generateSeeds = []uint64{0, 7, 1 << 63, math.MaxUint64, 0xdeadbeefcafef00d}

// generateSentinel fills the records around a draw, to show that a body
// writes none of them.
var generateSentinel = Record{Key: 0x5a5a5a5a5a5a5a5a, Val: -1}

// drawn returns the n records generate draws from state seed, with
// off sentinel records before them and 9 after, and the returned state.
func drawn(seed uint64, keys modulus, off, n int) ([]Record, uint64) {
	backing := make([]Record, off+n+9)
	for j := range backing {
		backing[j] = generateSentinel
	}
	z := generate(backing[off:off+n], seed, keys)
	return backing, z
}

// checkGenerate holds generate under body to the Go loop for one draw:
// every record, the sentinels around them and the returned state.
func checkGenerate(t *testing.T, body string, seed, keys uint64, off, n int) {
	t.Helper()
	m := newModulus(keys)
	restore := useGenerateBody("go")
	want, wantZ := drawn(seed, m, off, n)
	restore()
	defer useGenerateBody(body)()
	got, gotZ := drawn(seed, m, off, n)
	if gotZ != wantZ {
		t.Fatalf("%s: seed %#x keys %d n %d: state %#x, Go loop %#x", body, seed, keys, n, gotZ, wantZ)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: seed %#x keys %d n %d: record %d is %+v, Go loop %+v", body, seed, keys, n, j-off, got[j], want[j])
		}
	}
}

// TestGenerateMatchesPortable holds every source body this CPU has to
// the Go loop, and the Go loop to splitmix64 recomputed per record:
// lengths 0-300, so every remainder mod 8, seeds whose state wraps
// uint64, key counts that take the mask loop and one that takes %, and
// draws that start 0-3 records into their slice.
func TestGenerateMatchesPortable(t *testing.T) {
	if m := newModulus(1000); m.n == 0 {
		t.Fatal("1000 keys reduce by mask; the % loop goes untested")
	}
	defer useGenerateBody("go")()
	for _, seed := range generateSeeds {
		for _, keys := range generateKeys {
			recs, z := drawn(seed, newModulus(keys), 0, 300)
			for j, r := range recs[:300] {
				s := seed + gamma*uint64(j+1)
				h := mix(s)
				if want := (Record{Key: h % keys, Val: float32(h>>40) / (1 << 24)}); r != want {
					t.Fatalf("seed %#x keys %d: record %d is %+v, want %+v", seed, keys, j, r, want)
				}
			}
			if want := seed + gamma*300; z != want {
				t.Fatalf("seed %#x keys %d: state %#x, want %#x", seed, keys, z, want)
			}
		}
	}
	for _, body := range generateBodies() {
		t.Run(body, func(t *testing.T) {
			for _, seed := range generateSeeds {
				for _, keys := range generateKeys {
					for n := 0; n <= 300; n++ {
						checkGenerate(t, body, seed, keys, n%4, n)
					}
				}
			}
		})
	}
}

// FuzzGenerate holds every source body to the Go loop on random seeds,
// key counts and lengths.
func FuzzGenerate(f *testing.F) {
	f.Add(uint64(7), uint64(1024), uint16(256), uint8(0))
	f.Add(uint64(math.MaxUint64), uint64(1), uint16(15), uint8(1))
	f.Add(uint64(1<<63), uint64(1000), uint16(17), uint8(2))
	f.Add(uint64(0), uint64(1<<63), uint16(1000), uint8(3))
	f.Fuzz(func(t *testing.T, seed, keys uint64, n uint16, off uint8) {
		keys = max(keys, 1)
		for _, body := range generateBodies() {
			checkGenerate(t, body, seed, keys, int(off%8), int(n%2048))
		}
	})
}

// BenchmarkGenerate measures the source's draw per record for each
// body, on the stream-window shape: 256-record batches, 1024 keys.
func BenchmarkGenerate(b *testing.B) {
	const batch = 256
	recs := make([]Record, batch)
	keys := newModulus(1024)
	for _, body := range generateBodies() {
		b.Run(body, func(b *testing.B) {
			defer useGenerateBody(body)()
			z := uint64(7)
			for i := 0; i < b.N; i++ {
				z = generate(recs, z, keys)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
		})
	}
}
