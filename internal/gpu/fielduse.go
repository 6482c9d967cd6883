package gpu

import "gflink/internal/gstruct"

// FieldUse declares which GStruct columns of a kernel's primary input a
// launch actually touches. It is the registry-level analogue of reading
// the ptx: the transfer channel consults it to ship only the referenced
// columns of SoA blocks (column projection). Both functions receive the
// block's schema and the launch's scalar Args, because read sets often
// depend on them (e.g. the first d feature columns of a wider schema).
// Returning ok=false means "unknown for this schema/args" — the caller
// must fall back to shipping every column.
type FieldUse struct {
	Reads  func(s *gstruct.Schema, args []int64) (gstruct.ColSet, bool)
	Writes func(s *gstruct.Schema, args []int64) (gstruct.ColSet, bool)
}

// fieldUseReg maps kernel names to their field-use declarations. Like
// the kernel registry it is filled from init functions only and read
// without a lock afterwards.
var fieldUseReg = make(map[string]FieldUse)

// RegisterFieldUse installs the field-use declaration for a kernel name,
// replacing any previous one. Kernels without a declaration are treated
// as reading every column. Call it only from an init function.
func RegisterFieldUse(name string, u FieldUse) {
	fieldUseReg[name] = u
}

// LookupFieldUse resolves a kernel's field-use declaration.
func LookupFieldUse(name string) (FieldUse, bool) {
	u, ok := fieldUseReg[name]
	return u, ok
}

// KernelReads returns the columns of s the named kernel reads for the
// given args, or ok=false when no declaration applies (unknown kernel,
// nil Reads, or the declaration cannot answer for this schema/args).
func KernelReads(name string, s *gstruct.Schema, args []int64) (gstruct.ColSet, bool) {
	u, ok := LookupFieldUse(name)
	if !ok || u.Reads == nil {
		return 0, false
	}
	return u.Reads(s, args)
}
