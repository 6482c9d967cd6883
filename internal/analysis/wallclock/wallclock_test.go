package wallclock_test

import (
	"testing"

	"gflink/internal/analysis/analysistest"
	"gflink/internal/analysis/wallclock"
)

func TestWallclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), wallclock.Analyzer, "wallclock")
}

// TestClockGo runs the bare-go-statement fixture: flagged go
// statements, //gflink:allow-go waivers on the same line and the line
// above, and clock.Go / Group.Go spawns.
func TestClockGo(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), wallclock.Analyzer, "clockgo")
}
