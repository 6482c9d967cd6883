package cpufeat

import (
	"os"
	"strings"
	"testing"
)

// TestHasAVX512DQ pins HasAVX512DQ to true exactly when CPUID.1:ECX has
// OSXSAVE (bit 27), XCR0 has the XMM, YMM, opmask, ZMM_Hi256 and
// Hi16_ZMM bits (1, 2, 5, 6 and 7), and CPUID.7.0:EBX has AVX512F and
// AVX512DQ (bits 16 and 17). On Linux it also holds the answer to the
// kernel's "avx512f" and "avx512dq" flags in /proc/cpuinfo, which the
// kernel clears when it does not save the AVX-512 state.
func TestHasAVX512DQ(t *testing.T) {
	maxLeaf, _, _, _ := CPUID(0, 0)
	_, _, ecx1, _ := CPUID(1, 0)
	osxsave := ecx1&(1<<27) != 0
	var zmmState, avx512f, avx512dq bool
	if osxsave {
		zmmState = XGETBV0()&0b1110_0110 == 0b1110_0110
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ := CPUID(7, 0)
		avx512f, avx512dq = ebx7&(1<<16) != 0, ebx7&(1<<17) != 0
	}
	want := osxsave && zmmState && avx512f && avx512dq
	t.Logf("OSXSAVE=%v XCR0.XMM|YMM|opmask|ZMM_Hi256|Hi16_ZMM=%v AVX512F=%v AVX512DQ=%v",
		osxsave, zmmState, avx512f, avx512dq)
	if got := HasAVX512DQ(); got != want {
		t.Fatalf("HasAVX512DQ() = %v, want %v", got, want)
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
				flags += " "
				if has := strings.Contains(flags, " avx512f ") && strings.Contains(flags, " avx512dq "); has != want {
					t.Errorf("/proc/cpuinfo lists avx512f and avx512dq: %v, but the CPUID/XGETBV check says %v", has, want)
				}
				break
			}
		}
	}
}
