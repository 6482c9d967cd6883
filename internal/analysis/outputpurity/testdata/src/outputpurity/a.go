// Fixture for the outputpurity analyzer: feature-gated code must not
// write result buffers except through //gflink:real-copy sites.
package outputpurity

import (
	"gflink/internal/core"
	"gflink/internal/gpu"
	"gflink/internal/membuf"
)

//gflink:gated projection
func rangedNilInGated(w *core.CUDAWrapper, s *gpu.Stream, dst *gpu.Buffer, in *membuf.HBuffer) {
	w.MemcpyH2DRangesAsync(s, dst, in, nil, 10) // want `copy inside feature-gated code`
}

//gflink:gated projection
func rangedVarInGated(w *core.CUDAWrapper, s *gpu.Stream, dst *gpu.Buffer, in *membuf.HBuffer, k int) {
	ranges := []gpu.CopyRange{{Off: 0, Len: 4}}
	if k == 0 { // an equality guard does not sanction the copy
		ranges = nil
	}
	w.MemcpyH2DRangesAsync(s, dst, in, ranges, 10) // want `copy inside feature-gated code`
}

//gflink:gated projection
func rangedEmptyInGated(w *core.CUDAWrapper, s *gpu.Stream, dst *gpu.Buffer, in *membuf.HBuffer) {
	w.MemcpyH2DRangesAsync(s, dst, in, []gpu.CopyRange{}, 10) // want `copy inside feature-gated code`
}

//gflink:gated projection
func rangedSanctioned(w *core.CUDAWrapper, s *gpu.Stream, dst *gpu.Buffer, in *membuf.HBuffer, ranges []gpu.CopyRange) {
	//gflink:real-copy -- the projected columns are the sanctioned copy here
	w.MemcpyH2DRangesAsync(s, dst, in, ranges, 10)
}

//gflink:gated hosttier
func wholeInGated(w *core.CUDAWrapper, d *gpu.Device, dst *gpu.Buffer, src *membuf.HBuffer) {
	w.MemcpyH2D(d, dst, src, 10) // want `copy inside feature-gated code`
}

//gflink:gated projection
func hostCopyInGated(dst, src *membuf.HBuffer) {
	copy(dst.Bytes(), src.Bytes()) // want `copy inside feature-gated code`
}

//gflink:gated hosttier
func sanctionedFull(dst, src *membuf.HBuffer) {
	//gflink:real-copy -- staging rebuild is the sanctioned full copy here
	copy(dst.Bytes(), src.Bytes())
}

//gflink:gated hosttier
func insideClosure(w *core.CUDAWrapper, d *gpu.Device, dst *gpu.Buffer, src *membuf.HBuffer) func() {
	// Function literals inherit the enclosing function's gatedness.
	return func() {
		w.MemcpyH2D(d, dst, src, 10) // want `copy inside feature-gated code`
	}
}

// inheritsGate is reachable only from gated code, so it inherits the
// obligation through the caller fixpoint.
func inheritsGate(w *core.CUDAWrapper, d *gpu.Device, dst *membuf.HBuffer, src *gpu.Buffer) {
	w.MemcpyD2H(d, dst, src, 10) // want `copy inside feature-gated code`
}

//gflink:gated projection
func gatedCallerA(w *core.CUDAWrapper, d *gpu.Device, dst *membuf.HBuffer, src *gpu.Buffer) {
	inheritsGate(w, d, dst, src)
}

//gflink:gated hosttier
func gatedCallerB(w *core.CUDAWrapper, d *gpu.Device, dst *membuf.HBuffer, src *gpu.Buffer) {
	inheritsGate(w, d, dst, src)
}

// sharedHelper also runs on the default path (one ungated caller), so
// it carries no obligation.
func sharedHelper(w *core.CUDAWrapper, d *gpu.Device, dst *gpu.Buffer, src *membuf.HBuffer) {
	w.MemcpyH2D(d, dst, src, 10)
}

//gflink:gated hosttier
func gatedMixedCaller(w *core.CUDAWrapper, d *gpu.Device, dst *gpu.Buffer, src *membuf.HBuffer) {
	sharedHelper(w, d, dst, src)
}

func ungatedMixedCaller(w *core.CUDAWrapper, d *gpu.Device, dst *gpu.Buffer, src *membuf.HBuffer, s *gpu.Stream) {
	sharedHelper(w, d, dst, src)
	w.MemcpyD2H(d, nil, nil, 10)                 // ungated code copies freely
	w.MemcpyH2DRangesAsync(s, dst, src, nil, 10) // ranged copies too
}
