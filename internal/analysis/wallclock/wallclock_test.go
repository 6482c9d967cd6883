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

// TestMapRange runs the map-range fixture: every range over a map is
// flagged, including the loops whose bodies are order-free, one
// carrying the retired unordered directive and ranges over type
// parameters whose terms are all maps; ranges over slices, arrays,
// array pointers, strings, channels, ints and type parameters of slice
// or string terms are not.
func TestMapRange(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), wallclock.Analyzer, "maprange")
}
