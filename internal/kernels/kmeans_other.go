//go:build !amd64

package kernels

// assignGroupBody is assignGroupGo on architectures without an assembly
// body.
func assignGroupBody(acc []float32, span []byte, stride, m int, cents []byte, k, d int) {
	assignGroupGo(acc, span, stride, m, cents, k, d)
}
