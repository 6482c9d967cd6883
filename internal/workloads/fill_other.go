//go:build !amd64

package workloads

// fillCoords is fillCoordsGo on architectures without an assembly body.
func fillCoords(col []byte, centers []int32, base []float32, seed, x, dx uint64) {
	fillCoordsGo(col, centers, base, seed, x, dx)
}
