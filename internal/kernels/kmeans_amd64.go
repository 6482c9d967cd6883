package kernels

import "gflink/internal/cpufeat"

// useAVX2 picks assignGroupBody's body: AVX2 where the CPU and OS run it,
// else SSE2, the amd64 baseline. It is set once, at init; only tests
// change it, to run every body this CPU has.
var useAVX2 = cpuHasAVX2()

// assignGroupBody runs the assignGroup body useAVX2 picks.
func assignGroupBody(acc []float32, span []byte, stride, m int, cents []byte, k, d int) {
	if useAVX2 {
		assignGroupAVX2(acc, span, stride, m, cents, k, d)
		return
	}
	assignGroupSSE2(acc, span, stride, m, cents, k, d)
}

// assignGroupSSE2 is the SSE2 assignGroup body in kmeans_amd64.s, four
// XMM registers of four points.
//
//go:noescape
func assignGroupSSE2(acc []float32, span []byte, stride, m int, cents []byte, k, d int)

// assignGroupAVX2 is the AVX2 assignGroup body in kmeans_amd64.s, two YMM
// registers of eight points, two centroid rows per pass.
//
//go:noescape
func assignGroupAVX2(acc []float32, span []byte, stride, m int, cents []byte, k, d int)

// CPUID and XCR0 bits that cpuHasAVX2 reads.
const (
	cpuid1OSXSAVE = 1 << 27 // ECX of leaf 1: XGETBV is enabled
	cpuid1AVX     = 1 << 28 // ECX of leaf 1
	xcr0XMM       = 1 << 1  // the OS saves XMM state
	xcr0YMM       = 1 << 2  // the OS saves the upper YMM halves
	cpuid7AVX2    = 1 << 5  // EBX of leaf 7, subleaf 0
)

// cpuHasAVX2 reports whether the CPU has AVX and AVX2 and the OS saves
// the XMM and YMM state across context switches.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpufeat.CPUID(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpufeat.CPUID(1, 0); ecx&(cpuid1OSXSAVE|cpuid1AVX) != cpuid1OSXSAVE|cpuid1AVX {
		return false
	}
	if cpufeat.XGETBV0()&(xcr0XMM|xcr0YMM) != xcr0XMM|xcr0YMM {
		return false
	}
	_, ebx, _, _ := cpufeat.CPUID(7, 0)
	return ebx&cpuid7AVX2 != 0
}
