// Fixture for the wallclock analyzer: clock-reading and timer
// functions are banned; duration values and constants are legal.
package wallclock

import "time"

// Durations are the cost-model currency and stay legal.
const tick = 5 * time.Millisecond

func bad() time.Time {
	time.Sleep(tick)          // want `time\.Sleep is wall-clock`
	t0 := time.Now()          // want `time\.Now is wall-clock`
	_ = time.Since(t0)        // want `time\.Since is wall-clock`
	<-time.After(tick)        // want `time\.After is wall-clock`
	_ = time.Tick(tick)       // want `time\.Tick is wall-clock`
	tm := time.NewTimer(tick) // want `time\.NewTimer is wall-clock`
	tm.Stop()
	return time.Now() // want `time\.Now is wall-clock`
}

// There is no waiver: the retired allow-wallclock directive no longer
// suppresses a finding.
func badWaived() time.Duration {
	//gflink:allow-wallclock host wall-clock is the measurand here
	t0 := time.Now() // want `time\.Now is wall-clock`
	//gflink:allow-wallclock host wall-clock is the measurand here
	return time.Since(t0) // want `time\.Since is wall-clock`
}

func okDurations() time.Duration {
	d, err := time.ParseDuration("5ms")
	if err != nil {
		return tick
	}
	return d + tick*time.Duration(3)
}
