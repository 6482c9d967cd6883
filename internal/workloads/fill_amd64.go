package workloads

import "gflink/internal/cpufeat"

// useAVX512 picks fillCoords' body: AVX-512 (F and DQ) where the CPU and
// OS run it, else the Go loop. It is set once, at init; only tests
// change it, to run every body this CPU has.
var useAVX512 = cpufeat.HasAVX512DQ()

// fillCoords writes len(centers) coordinates of one column into col:
// col[i] = base[centers[i]] + (u·4 − 2) with u = unit(seed, x + i·dx).
// When the column's base values fit one ZMM register (K ≤ 16), the
// AVX-512 body writes whole groups of eight; the Go loop writes the
// rest.
func fillCoords(col []byte, centers []int32, base []float32, seed, x, dx uint64) {
	if useAVX512 && len(base) <= 16 {
		var tab [16]float32
		copy(tab[:], base)
		n := coordsAVX512(col, centers, &tab, seed+gamma*(x+1), gamma*dx)
		col, centers, x = col[4*n:], centers[n:], x+uint64(n)*dx
	}
	fillCoordsGo(col, centers, base, seed, x, dx)
}

// coordsAVX512 is the AVX-512 body in fill_amd64.s. It writes the first
// len(centers)&^7 coordinates eight at a time, splitmix64 in qword lanes
// from state z (the mix state of ordinal x) stepping by dz, and returns
// how many it wrote. col holds at least 4·len(centers) bytes.
//
//go:noescape
func coordsAVX512(col []byte, centers []int32, tab *[16]float32, z, dz uint64) (n int)
