package kernels

import (
	"os"
	"strings"
	"testing"

	"gflink/internal/cpufeat"
)

// kmeansBodies names the assignGroupBody bodies this CPU runs.
func kmeansBodies() []string {
	if cpuHasAVX2() {
		return []string{"sse2", "avx2"}
	}
	return []string{"sse2"}
}

// useKMeansBody makes body the one assignGroupBody runs, and returns the
// function that restores the previous one.
func useKMeansBody(body string) (restore func()) {
	prev := useAVX2
	useAVX2 = body == "avx2"
	return func() { useAVX2 = prev }
}

// TestKMeansBodySelected pins that init picks the AVX2 body exactly when
// CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), XCR0 has the XMM and
// YMM bits (1 and 2), and CPUID.7.0:EBX has AVX2 (bit 5). On Linux it
// also holds the choice to the kernel's "avx2" flag in /proc/cpuinfo,
// which the kernel clears when it does not save YMM state.
func TestKMeansBodySelected(t *testing.T) {
	maxLeaf, _, _, _ := cpufeat.CPUID(0, 0)
	_, _, ecx1, _ := cpufeat.CPUID(1, 0)
	osxsave, avx := ecx1&(1<<27) != 0, ecx1&(1<<28) != 0
	var ymmState, avx2 bool
	if osxsave {
		ymmState = cpufeat.XGETBV0()&0b110 == 0b110
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpufeat.CPUID(7, 0)
		avx2 = ebx7&(1<<5) != 0
	}
	want := osxsave && avx && ymmState && avx2
	t.Logf("OSXSAVE=%v AVX=%v XCR0.XMM|YMM=%v AVX2=%v; bodies run by the matrix tests: %v",
		osxsave, avx, ymmState, avx2, kmeansBodies())
	if useAVX2 != want {
		t.Fatalf("init chose useAVX2=%v, want %v", useAVX2, want)
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
				if has := strings.Contains(flags+" ", " avx2 "); has != want {
					t.Errorf("/proc/cpuinfo lists avx2: %v, but the CPUID/XGETBV check says %v", has, want)
				}
				break
			}
		}
	}
}
