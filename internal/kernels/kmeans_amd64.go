package kernels

// distColsBody is the SSE2 distCols body in kmeans_amd64.s. SSE2 is the
// amd64 baseline, so it needs no CPU feature check.
//
//go:noescape
func distColsBody(dist *[kmeansLanes]float32, pts []byte, stride int, cent []byte)
