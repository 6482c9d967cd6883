package workloads

import (
	"testing"

	"gflink/internal/cpufeat"
)

// kmeansFillBodies names the fillCoords bodies this CPU runs.
func kmeansFillBodies() []string {
	if cpufeat.HasAVX512DQ() {
		return []string{"go", "avx512"}
	}
	return []string{"go"}
}

// useKMeansFillBody makes body the one fillCoords runs, and returns the
// function that restores the previous one.
func useKMeansFillBody(body string) (restore func()) {
	prev := useAVX512
	useAVX512 = body == "avx512"
	return func() { useAVX512 = prev }
}

// TestKMeansFillBodySelected pins that init picks the AVX-512 body
// exactly when cpufeat.HasAVX512DQ holds; cpufeat's TestHasAVX512DQ
// holds that check to the CPUID and XCR0 bits and to /proc/cpuinfo.
func TestKMeansFillBodySelected(t *testing.T) {
	want := cpufeat.HasAVX512DQ()
	t.Logf("AVX512F+DQ usable: %v; bodies run by the fill tests: %v", want, kmeansFillBodies())
	if useAVX512 != want {
		t.Fatalf("init chose useAVX512=%v, want %v", useAVX512, want)
	}
}
