package stream

import "gflink/internal/cpufeat"

// useAVX512 picks generateMask's body: AVX-512 (F and DQ) where the CPU
// and OS run it, else the Go loop. It is set once, at init; only tests
// change it, to run every body this CPU has.
var useAVX512 = cpufeat.HasAVX512DQ()

// generateMask fills recs with keys reduced by mask and returns the
// advanced state. The AVX-512 body draws whole groups of eight; the Go
// loop draws the rest.
func generateMask(recs []Record, z, mask uint64) uint64 {
	if useAVX512 {
		var n int
		n, z = generateAVX512(recs, z, mask)
		recs = recs[n:]
	}
	return generateMaskGo(recs, z, mask)
}

// generateAVX512 is the AVX-512 body in generate_amd64.s. It draws the
// first len(recs)&^7 records eight at a time, splitmix64 in qword
// lanes, and returns how many it wrote and the state after the last.
//
//go:noescape
func generateAVX512(recs []Record, z, mask uint64) (n int, next uint64)
