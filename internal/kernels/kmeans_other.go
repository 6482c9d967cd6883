//go:build !amd64

package kernels

// distColsBody is distColsGo on architectures without an assembly body.
func distColsBody(dist *[kmeansLanes]float32, pts []byte, stride int, cent []byte) {
	distColsGo(dist, pts, stride, cent)
}
