package kernels

// assignGroupBody is the SSE2 assignGroup body in kmeans_amd64.s. SSE2 is
// the amd64 baseline, so it needs no CPU feature check.
//
//go:noescape
func assignGroupBody(acc []float32, span []byte, stride, m int, cents []byte, k, d int)
