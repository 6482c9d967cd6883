//go:build !amd64

package stream

// generateBodies names the generateMask bodies this CPU runs: the
// portable twin alone.
func generateBodies() []string { return []string{"go"} }

// useGenerateBody selects body, which is always the portable twin.
func useGenerateBody(string) (restore func()) { return func() {} }
