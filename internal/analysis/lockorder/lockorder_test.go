package lockorder_test

import (
	"testing"

	"gflink/internal/analysis/analysistest"
	"gflink/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	// dep is listed first so its LockSet/LockGraph facts are in the
	// store when the lockorder fixture (which imports it) is analyzed.
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "lockorder/dep", "lockorder")
}

// TestLockHold runs the blocking-under-a-lock fixture: blocking vclock
// and membuf calls under a held mutex are flagged; the same calls after
// Unlock, inside a spawned literal, or non-blocking ones are not.
func TestLockHold(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "lockhold")
}
