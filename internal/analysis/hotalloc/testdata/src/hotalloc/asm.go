package hotalloc

import _ "unsafe" // for go:linkname

// asmBody is declared without a body: its body is assembly, which does
// not reach the Go heap, so it is allocation-free.
func asmBody(x []float32)

// linked is bodiless too, but bound by go:linkname to a Go function
// whose allocations are unknown here.
//
//go:linkname linked runtime.gcWriteBarrier
func linked()

//gflink:hotpath
func hotAsm(x []float32) {
	asmBody(x)
}

//gflink:hotpath
func hotLinked() {
	linked() // want `not proven allocation-free`
}
