package stream

import (
	"testing"

	"gflink/internal/cpufeat"
)

// generateBodies names the generateMask bodies this CPU runs.
func generateBodies() []string {
	if cpufeat.HasAVX512DQ() {
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
// when cpufeat.HasAVX512DQ holds; cpufeat's TestHasAVX512DQ holds that
// check to the CPUID and XCR0 bits and to /proc/cpuinfo.
func TestGenerateBodySelected(t *testing.T) {
	want := cpufeat.HasAVX512DQ()
	t.Logf("AVX512F+DQ usable: %v; bodies run by the generate and pipeline tests: %v", want, generateBodies())
	if useAVX512 != want {
		t.Fatalf("init chose useAVX512=%v, want %v", useAVX512, want)
	}
}
