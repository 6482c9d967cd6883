package poolsafe_test

import (
	"testing"

	"gflink/internal/analysis/analysistest"
	"gflink/internal/analysis/poolsafe"
)

// TestPoolsafe runs the //gflink:pool fixtures; dep is listed first so
// its PoolSource and Retains facts are in the store when the fixture
// that imports it is analyzed.
func TestPoolsafe(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), poolsafe.Analyzer, "poolsafe/dep", "poolsafe")
}

// TestPoolsafeBufLifecycle runs the HBuffer fixtures: the membuf
// acquire → Free-or-transfer contract and its Pin/Unpin obligation.
func TestPoolsafeBufLifecycle(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), poolsafe.Analyzer, "buflifecycle/dep", "buflifecycle")
}

// TestBufEscape runs the zero-copy view fixtures: HBuffer.Bytes()
// views must not outlive the function that took them.
func TestBufEscape(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), poolsafe.Analyzer, "bufescape/dep", "bufescape")
}
