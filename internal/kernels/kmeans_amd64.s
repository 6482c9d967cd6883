#include "textflag.h"

// func distColsBody(dist *[16]float32, pts []byte, stride int, cent []byte)
//
// X0..X3 hold the distances of points 0-3, 4-7, 8-11 and 12-15, starting
// from +0. For each j = 0..d-1, X4 broadcasts cent[j], and every lane
// adds (p - c)*(p - c) with one SUBPS, one MULPS and one ADDPS: the
// scalar reference's operations in its order, with no FMA and nothing
// summed across lanes. The caller guarantees d >= 1 and that the span
// (d-1)*stride+16 float32s fits in pts.
TEXT ·distColsBody(SB), NOSPLIT, $0-64
	MOVQ  dist+0(FP), DI
	MOVQ  pts_base+8(FP), SI
	MOVQ  stride+32(FP), DX
	MOVQ  cent_base+40(FP), BX
	MOVQ  cent_len+48(FP), CX
	SHLQ  $2, DX             // column stride in bytes
	SHRQ  $2, CX             // d
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3

loop:
	MOVSS  (BX), X4
	SHUFPS $0x00, X4, X4
	MOVUPS 0(SI), X5
	MOVUPS 16(SI), X6
	MOVUPS 32(SI), X7
	MOVUPS 48(SI), X8
	SUBPS  X4, X5
	SUBPS  X4, X6
	SUBPS  X4, X7
	SUBPS  X4, X8
	MULPS  X5, X5
	MULPS  X6, X6
	MULPS  X7, X7
	MULPS  X8, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   $4, BX
	ADDQ   DX, SI
	DECQ   CX
	JNZ    loop

	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET
