package poolsafe_test

import (
	"testing"

	"gflink/internal/analysis/analysistest"
	"gflink/internal/analysis/poolsafe"
)

func TestPoolsafe(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), poolsafe.Analyzer, "poolsafe/dep", "poolsafe")
}

// TestPoolsafeBufLifecycle runs the HBuffer fixtures: the membuf
// acquire → Free-or-transfer contract and its Pin/Unpin obligation.
func TestPoolsafeBufLifecycle(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), poolsafe.Analyzer, "buflifecycle")
}
