//go:build !amd64

package stream

// generateMask is generateMaskGo on architectures without an assembly
// body.
func generateMask(recs []Record, z, mask uint64) uint64 {
	return generateMaskGo(recs, z, mask)
}
