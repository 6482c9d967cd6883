package cpufeat

// CPUID runs CPUID with EAX = leaf and ECX = sub.
func CPUID(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// XGETBV0 returns the low half of XCR0, the state components the OS
// saves. It faults unless CPUID.1:ECX.OSXSAVE is set.
func XGETBV0() uint32
