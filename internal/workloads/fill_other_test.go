//go:build !amd64

package workloads

// kmeansFillBodies names the fillCoords bodies this CPU runs: the
// portable twin alone.
func kmeansFillBodies() []string { return []string{"go"} }

// useKMeansFillBody selects body, which is always the portable twin.
func useKMeansFillBody(string) (restore func()) { return func() {} }
