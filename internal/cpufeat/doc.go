// Package cpufeat reads the x86 feature bits that pick an assembly body
// at package init: CPUID and the low half of XCR0. It is the one reader
// the kernels and stream packages share; each keeps its own rule for
// which bits its body needs. It declares nothing off amd64, where no
// assembly body exists.
package cpufeat
