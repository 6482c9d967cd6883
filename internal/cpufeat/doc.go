// Package cpufeat reads the x86 feature bits that pick an assembly body
// at package init: CPUID and the low half of XCR0. It is the one reader
// the kernels, stream and workloads packages share. HasAVX512DQ is the
// one rule for the AVX-512 bodies (the stream source and the KMeans
// GDST fill); the kernels package keeps its own AVX2 rule. It declares
// nothing off amd64, where no assembly body exists.
package cpufeat
