#include "textflag.h"

// func CPUID(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·CPUID(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func XGETBV0() uint32
TEXT ·XGETBV0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
