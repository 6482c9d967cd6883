package stream

import "gflink/internal/cpufeat"

// useAVX512 picks generateMask's body: AVX-512 (F and DQ) where the CPU
// and OS run it, else the Go loop. It is set once, at init; only tests
// change it, to run every body this CPU has.
var useAVX512 = cpuHasAVX512DQ()

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

// CPUID and XCR0 bits that cpuHasAVX512DQ reads.
const (
	cpuid1OSXSAVE  = 1 << 27 // ECX of leaf 1: XGETBV is enabled
	cpuid7AVX512F  = 1 << 16 // EBX of leaf 7, subleaf 0
	cpuid7AVX512DQ = 1 << 17 // EBX of leaf 7, subleaf 0
	// The OS saves the XMM and YMM state, the opmask registers, the
	// upper halves of ZMM0-15 and all of ZMM16-31.
	xcr0AVX512 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
)

// cpuHasAVX512DQ reports whether the CPU has AVX512F and AVX512DQ and
// the OS saves every register state they use across context switches.
func cpuHasAVX512DQ() bool {
	if maxLeaf, _, _, _ := cpufeat.CPUID(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpufeat.CPUID(1, 0); ecx&cpuid1OSXSAVE == 0 {
		return false
	}
	if cpufeat.XGETBV0()&xcr0AVX512 != xcr0AVX512 {
		return false
	}
	_, ebx, _, _ := cpufeat.CPUID(7, 0)
	return ebx&(cpuid7AVX512F|cpuid7AVX512DQ) == cpuid7AVX512F|cpuid7AVX512DQ
}
