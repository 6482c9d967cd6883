package cpufeat

// CPUID runs CPUID with EAX = leaf and ECX = sub.
func CPUID(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// XGETBV0 returns the low half of XCR0, the state components the OS
// saves. It faults unless CPUID.1:ECX.OSXSAVE is set.
func XGETBV0() uint32

// CPUID and XCR0 bits that HasAVX512DQ reads.
const (
	cpuid1OSXSAVE  = 1 << 27 // ECX of leaf 1: XGETBV is enabled
	cpuid7AVX512F  = 1 << 16 // EBX of leaf 7, subleaf 0
	cpuid7AVX512DQ = 1 << 17 // EBX of leaf 7, subleaf 0
	// The OS saves the XMM and YMM state, the opmask registers, the
	// upper halves of ZMM0-15 and all of ZMM16-31.
	xcr0AVX512 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
)

// HasAVX512DQ reports whether the CPU has AVX512F and AVX512DQ and the
// OS saves every register state they use across context switches. The
// stream source and the KMeans GDST fill pick their AVX-512 bodies by
// it.
func HasAVX512DQ() bool {
	if maxLeaf, _, _, _ := CPUID(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := CPUID(1, 0); ecx&cpuid1OSXSAVE == 0 {
		return false
	}
	if XGETBV0()&xcr0AVX512 != xcr0AVX512 {
		return false
	}
	_, ebx, _, _ := CPUID(7, 0)
	return ebx&(cpuid7AVX512F|cpuid7AVX512DQ) == cpuid7AVX512F|cpuid7AVX512DQ
}
