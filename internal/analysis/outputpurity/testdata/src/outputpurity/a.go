// Fixture for the outputpurity analyzer: feature-gated code must not
// write result buffers, and no directive exempts a copy.
package outputpurity

import (
	"gflink/internal/gpu"
	"gflink/internal/membuf"
)

//gflink:gated projection
func rangedNilInGated(s *gpu.Stream, dst *gpu.Buffer, in *membuf.HBuffer) {
	s.H2DRangesAsync(dst, in, nil, 10) // want `copy inside feature-gated code`
}

//gflink:gated projection
func rangedVarInGated(s *gpu.Stream, dst *gpu.Buffer, in *membuf.HBuffer, k int) {
	ranges := []gpu.CopyRange{{Off: 0, Len: 4}}
	if k == 0 { // an equality guard does not sanction the copy
		ranges = nil
	}
	s.H2DRangesAsync(dst, in, ranges, 10) // want `copy inside feature-gated code`
}

//gflink:gated projection
func rangedEmptyInGated(s *gpu.Stream, dst *gpu.Buffer, in *membuf.HBuffer) {
	s.H2DRangesAsync(dst, in, []gpu.CopyRange{}, 10) // want `copy inside feature-gated code`
}

//gflink:gated projection
func rangedSanctioned(s *gpu.Stream, dst *gpu.Buffer, in *membuf.HBuffer, ranges []gpu.CopyRange) {
	//gflink:real-copy -- not a directive: no comment exempts a copy
	s.H2DRangesAsync(dst, in, ranges, 10) // want `copy inside feature-gated code`
}

//gflink:gated hosttier
func streamCopiesInGated(s *gpu.Stream, dev *gpu.Buffer, host *membuf.HBuffer) {
	s.H2DAsync(dev, host, 10) // want `copy inside feature-gated code`
	s.D2HAsync(host, dev, 10) // want `copy inside feature-gated code`
}

//gflink:gated hosttier
func wholeInGated(s *gpu.Stream, dst *gpu.Buffer, src *membuf.HBuffer) {
	s.H2DAsync(dst, src, 10) // want `copy inside feature-gated code`
}

//gflink:gated projection
func hostCopyInGated(dst, src *membuf.HBuffer) {
	copy(dst.Bytes(), src.Bytes()) // want `copy inside feature-gated code`
}

//gflink:gated hosttier
func sanctionedFull(dst, src *membuf.HBuffer) {
	//gflink:real-copy -- not a directive: no comment exempts a copy
	copy(dst.Bytes(), src.Bytes()) // want `copy inside feature-gated code`
}

//gflink:gated hosttier
func insideClosure(s *gpu.Stream, dst *gpu.Buffer, src *membuf.HBuffer) func() {
	// Function literals inherit the enclosing function's gatedness.
	return func() {
		s.H2DAsync(dst, src, 10) // want `copy inside feature-gated code`
	}
}

// inheritsGate is reachable only from gated code, so it inherits the
// obligation through the caller fixpoint.
func inheritsGate(s *gpu.Stream, dst *membuf.HBuffer, src *gpu.Buffer) {
	s.D2HAsync(dst, src, 10) // want `copy inside feature-gated code`
}

//gflink:gated projection
func gatedCallerA(s *gpu.Stream, dst *membuf.HBuffer, src *gpu.Buffer) {
	inheritsGate(s, dst, src)
}

//gflink:gated hosttier
func gatedCallerB(s *gpu.Stream, dst *membuf.HBuffer, src *gpu.Buffer) {
	inheritsGate(s, dst, src)
}

// sharedHelper also runs on the default path (one ungated caller), so
// it carries no obligation.
func sharedHelper(s *gpu.Stream, dst *gpu.Buffer, src *membuf.HBuffer) {
	s.H2DAsync(dst, src, 10)
}

//gflink:gated hosttier
func gatedMixedCaller(s *gpu.Stream, dst *gpu.Buffer, src *membuf.HBuffer) {
	sharedHelper(s, dst, src)
}

func ungatedMixedCaller(s *gpu.Stream, dst *gpu.Buffer, src *membuf.HBuffer) {
	sharedHelper(s, dst, src)
	s.D2HAsync(nil, nil, 10)            // ungated code copies freely
	s.H2DRangesAsync(dst, src, nil, 10) // ranged copies too
}
