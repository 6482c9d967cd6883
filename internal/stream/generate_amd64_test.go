package stream

import (
	"os"
	"strings"
	"testing"

	"gflink/internal/cpufeat"
)

// generateBodies names the generateMask bodies this CPU runs.
func generateBodies() []string {
	if cpuHasAVX512DQ() {
		return []string{"go", "avx512"}
	}
	return []string{"go"}
}

// useGenerateBody makes body the one generateMask runs, and returns the
// function that restores the previous one.
func useGenerateBody(body string) (restore func()) {
	prev := useAVX512
	useAVX512 = body == "avx512"
	return func() { useAVX512 = prev }
}

// TestGenerateBodySelected pins that init picks the AVX-512 body exactly
// when CPUID.1:ECX has OSXSAVE (bit 27), XCR0 has the XMM, YMM, opmask,
// ZMM_Hi256 and Hi16_ZMM bits (1, 2, 5, 6 and 7), and CPUID.7.0:EBX has
// AVX512F and AVX512DQ (bits 16 and 17). On Linux it also holds the
// choice to the kernel's "avx512f" and "avx512dq" flags in
// /proc/cpuinfo, which the kernel clears when it does not save the
// AVX-512 state.
func TestGenerateBodySelected(t *testing.T) {
	maxLeaf, _, _, _ := cpufeat.CPUID(0, 0)
	_, _, ecx1, _ := cpufeat.CPUID(1, 0)
	osxsave := ecx1&(1<<27) != 0
	var zmmState, avx512f, avx512dq bool
	if osxsave {
		zmmState = cpufeat.XGETBV0()&0b1110_0110 == 0b1110_0110
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpufeat.CPUID(7, 0)
		avx512f, avx512dq = ebx7&(1<<16) != 0, ebx7&(1<<17) != 0
	}
	want := osxsave && zmmState && avx512f && avx512dq
	t.Logf("OSXSAVE=%v XCR0.XMM|YMM|opmask|ZMM_Hi256|Hi16_ZMM=%v AVX512F=%v AVX512DQ=%v; bodies run by the generate and pipeline tests: %v",
		osxsave, zmmState, avx512f, avx512dq, generateBodies())
	if useAVX512 != want {
		t.Fatalf("init chose useAVX512=%v, want %v", useAVX512, want)
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
