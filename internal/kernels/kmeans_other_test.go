//go:build !amd64

package kernels

// kmeansBodies names the assignGroupBody bodies this CPU runs: the
// portable twin alone.
func kmeansBodies() []string { return []string{"go"} }

// useKMeansBody selects body, which is always the portable twin.
func useKMeansBody(string) (restore func()) { return func() {} }
