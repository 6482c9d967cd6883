#include "textflag.h"

// PICK keeps, per lane, the running minimum B and its centroid index I:
// where dist D < B (CMPPS predicate 1, strict and false on NaN) they
// take D and the index in X4, else they stay. X5 and X6 are scratch; D
// is spent.
#define PICK(D, B, I) \
	MOVAPS D, X5; \
	CMPPS  B, X5, $1; \
	MOVAPS X5, X6; \
	ANDPS  X5, D; \
	ANDNPS B, X6; \
	ORPS   X6, D; \
	MOVAPS D, B; \
	MOVAPS X5, X6; \
	ANDPS  X4, X5; \
	ANDNPS I, X6; \
	ORPS   X6, X5; \
	MOVAPS X5, I

// func assignGroupBody(acc []float32, span []byte, stride, m int, cents []byte, k, d int)
//
// Scores. For each centroid row c = 0..k-1, X0..X3 hold the distances of
// points 0-3, 4-7, 8-11 and 12-15, starting from +0. For each j =
// 0..d-1, X4 broadcasts cents[c·d+j], and every lane adds (p - c)*(p - c)
// with one SUBPS, one MULPS and one ADDPS: the scalar reference's
// operations in its order, with no FMA and nothing summed across lanes.
// PICK then folds the row into the running minimum X8..X11 (from
// MaxFloat32) and its int32 index X12..X15 (from 0), so the first strict
// minimum wins and a point with no finite distance keeps centroid 0.
//
// Adds. The indices go to the 64-byte frame, and for each of the first m
// lanes in point order its d coordinates are added to acc[best·(d+1)+j],
// two per loop step, and 1.0 to the count. The partial sum is always
// ADDSS's destination, as in the reference, so a NaN sum keeps its own
// NaN with no check.
//
// The caller guarantees 1 <= m <= 16, k >= 1, d >= 1, that the span
// (d-1)*stride+16 float32s fits in span, and that cents holds k·d and
// acc k·(d+1) float32s.
TEXT ·assignGroupBody(SB), NOSPLIT, $64-104
	MOVQ span_base+24(FP), SI
	MOVQ stride+48(FP), DX
	MOVQ cents_base+64(FP), BX
	MOVQ k+88(FP), R8
	MOVQ d+96(FP), R9
	SHLQ $2, DX                  // column stride in bytes

	MOVL   $0x7f7fffff, AX       // math.MaxFloat32
	MOVQ   AX, X8
	SHUFPS $0x00, X8, X8
	MOVAPS X8, X9
	MOVAPS X8, X10
	MOVAPS X8, X11
	PXOR   X12, X12
	PXOR   X13, X13
	PXOR   X14, X14
	PXOR   X15, X15
	XORQ   R10, R10              // c

row:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, R11                // column j of the span
	MOVQ  R9, CX

col:
	MOVSS  (BX), X4              // rows are contiguous: BX walks all of cents
	SHUFPS $0x00, X4, X4
	MOVUPS 0(R11), X5
	MOVUPS 16(R11), X6
	MOVUPS 32(R11), X7
	SUBPS  X4, X5
	SUBPS  X4, X6
	SUBPS  X4, X7
	MULPS  X5, X5
	MULPS  X6, X6
	MULPS  X7, X7
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	MOVUPS 48(R11), X5
	SUBPS  X4, X5
	MULPS  X5, X5
	ADDPS  X5, X3
	ADDQ   $4, BX
	ADDQ   DX, R11
	DECQ   CX
	JNZ    col

	MOVQ   R10, X4
	PSHUFD $0x00, X4, X4
	PICK(X0, X8, X12)
	PICK(X1, X9, X13)
	PICK(X2, X10, X14)
	PICK(X3, X11, X15)
	INCQ   R10
	CMPQ   R10, R8
	JLT    row

	MOVOU X12, 0(SP)
	MOVOU X13, 16(SP)
	MOVOU X14, 32(SP)
	MOVOU X15, 48(SP)
	MOVQ  acc_base+0(FP), DI
	MOVQ  m+56(FP), R8
	LEAQ  4(R9*4), R10           // bytes per partial row: (d+1)*4
	MOVL  $0x3f800000, AX        // 1.0
	MOVQ  AX, X1
	XORQ  R12, R12               // lane l

lane:
	MOVL  0(SP)(R12*4), AX       // best centroid of point l
	IMULQ R10, AX
	LEAQ  (DI)(AX*1), R11        // its partial row
	LEAQ  (SI)(R12*4), R13       // coordinate 0 of point l
	MOVQ  R9, CX
	SHRQ  $1, CX                 // coordinate pairs
	JZ    odd

pair:
	MOVSS (R11), X0
	ADDSS (R13), X0
	MOVSS X0, (R11)
	MOVSS 4(R11), X2
	ADDSS (R13)(DX*1), X2
	MOVSS X2, 4(R11)
	ADDQ  $8, R11
	LEAQ  (R13)(DX*2), R13
	DECQ  CX
	JNZ   pair

odd:
	TESTQ $1, R9
	JZ    count
	MOVSS (R11), X0
	ADDSS (R13), X0
	MOVSS X0, (R11)
	ADDQ  $4, R11

count:
	MOVSS (R11), X0
	ADDSS X1, X0
	MOVSS X0, (R11)
	INCQ  R12
	CMPQ  R12, R8
	JLT   lane
	RET
