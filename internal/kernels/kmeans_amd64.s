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

// VPICK is PICK for eight lanes: where dist D < B (VCMPPS predicate 1)
// B and I take D and the index in N. Y5 is scratch.
#define VPICK(D, B, I, N) \
	VCMPPS    $1, B, D, Y5; \
	VBLENDVPS Y5, D, B, B; \
	VBLENDVPS Y5, N, I, I

// ADDS is the adds stage both bodies end with. The int32 best index of
// each of the sixteen lanes is in the 64-byte frame; SI is the span, DX
// its column stride in bytes and R9 is d. For each of the first m lanes
// in point order, its d coordinates are added to acc[best·(d+1)+j], two
// per loop step, and 1.0 to the count. The partial sum is always
// ADDSS's destination, as in the reference, so a NaN sum keeps its own
// NaN with no check.
#define ADDS \
	MOVQ  acc_base+0(FP), DI; \
	MOVQ  m+56(FP), R8; \
	LEAQ  4(R9*4), R10; \
	MOVL  $0x3f800000, AX; \
	MOVQ  AX, X1; \
	XORQ  R12, R12; \
lane: \
	MOVL  0(SP)(R12*4), AX; \
	IMULQ R10, AX; \
	LEAQ  (DI)(AX*1), R11; \
	LEAQ  (SI)(R12*4), R13; \
	MOVQ  R9, CX; \
	SHRQ  $1, CX; \
	JZ    odd; \
pair: \
	MOVSS (R11), X0; \
	ADDSS (R13), X0; \
	MOVSS X0, (R11); \
	MOVSS 4(R11), X2; \
	ADDSS (R13)(DX*1), X2; \
	MOVSS X2, 4(R11); \
	ADDQ  $8, R11; \
	LEAQ  (R13)(DX*2), R13; \
	DECQ  CX; \
	JNZ   pair; \
odd: \
	TESTQ $1, R9; \
	JZ    count; \
	MOVSS (R11), X0; \
	ADDSS (R13), X0; \
	MOVSS X0, (R11); \
	ADDQ  $4, R11; \
count: \
	MOVSS (R11), X0; \
	ADDSS X1, X0; \
	MOVSS X0, (R11); \
	INCQ  R12; \
	CMPQ  R12, R8; \
	JLT   lane

// func assignGroupSSE2(acc []float32, span []byte, stride, m int, cents []byte, k, d int)
//
// Scores. For each centroid row c = 0..k-1, X0..X3 hold the distances of
// points 0-3, 4-7, 8-11 and 12-15, starting from +0. For each j =
// 0..d-1, X4 broadcasts cents[c·d+j], and every lane adds (p - c)*(p - c)
// with one SUBPS, one MULPS and one ADDPS: the scalar reference's
// operations in its order, with no FMA and nothing summed across lanes.
// PICK then folds the row into the running minimum X8..X11 (from
// MaxFloat32) and its int32 index X12..X15 (from 0), so the first strict
// minimum wins and a point with no finite distance keeps centroid 0.
// The indices go to the frame, and ADDS adds the first m points.
//
// The caller guarantees 1 <= m <= 16, k >= 1, d >= 1, that the span
// (d-1)*stride+16 float32s fits in span, and that cents holds k·d and
// acc k·(d+1) float32s.
TEXT ·assignGroupSSE2(SB), NOSPLIT, $64-104
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
	ADDS
	RET

// func assignGroupAVX2(acc []float32, span []byte, stride, m int, cents []byte, k, d int)
//
// assignGroupSSE2 with eight lanes per register: Y0 and Y1 hold the
// distances of points 0-7 and 8-15 to row c, and each pass over the
// columns scores rows c and c+1 at once (Y2 and Y3 for row c+1, whose
// coordinate Y7 broadcasts), so four independent add chains hide the
// VADDPS latency. Each lane still runs VSUBPS, VMULPS and VADDPS from +0
// for j = 0..d-1, with the point as the first source of the subtract
// and the distance as the first source of the add, as in the SSE2 body.
// Row c is folded into the running minimum (Y12, Y13; index Y14, Y15)
// before row c+1, so the rows are picked in ascending c. An odd k ends
// with a one-row pass. Only VEX encodings run until VZEROUPPER, which
// precedes the scalar ADDS.
//
// A launch's point block usually comes from beyond the L2 cache, so each
// column step also prefetches column j 128 bytes on: the line of the
// group after next where the column is 64-byte aligned, else the next
// group's second line, which this group's loads do not touch. A
// prefetch is only a hint: it never faults and never changes a value,
// so it may point past the span.
//
// It has the same caller guarantees as assignGroupSSE2, and runs only
// where cpuHasAVX2 holds.
TEXT ·assignGroupAVX2(SB), NOSPLIT, $64-104
	MOVQ span_base+24(FP), SI
	MOVQ stride+48(FP), DX
	MOVQ cents_base+64(FP), BX
	MOVQ k+88(FP), R8
	MOVQ d+96(FP), R9
	SHLQ $2, DX                  // column stride in bytes
	LEAQ (R9*4), R13             // bytes per centroid row

	MOVL         $0x7f7fffff, AX // math.MaxFloat32
	VMOVD        AX, X12
	VBROADCASTSS X12, Y12
	VMOVAPS      Y12, Y13
	VXORPS       Y14, Y14, Y14
	VXORPS       Y15, Y15, Y15
	XORQ         R10, R10        // c

rows2:
	LEAQ  1(R10), AX
	CMPQ  AX, R8
	JGE   row1                   // fewer than two rows left
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ  SI, R11                // column j of the span
	MOVQ  R9, CX

col2:
	VBROADCASTSS (BX), Y4        // cents[c·d+j]
	VBROADCASTSS (BX)(R13*1), Y7 // cents[(c+1)·d+j]
	VMOVUPS      0(R11), Y5
	VMOVUPS      32(R11), Y6
	PREFETCHT0   128(R11)        // column j two groups on
	VSUBPS       Y4, Y5, Y8
	VSUBPS       Y4, Y6, Y9
	VSUBPS       Y7, Y5, Y10
	VSUBPS       Y7, Y6, Y11
	VMULPS       Y8, Y8, Y8
	VMULPS       Y9, Y9, Y9
	VMULPS       Y10, Y10, Y10
	VMULPS       Y11, Y11, Y11
	VADDPS       Y8, Y0, Y0
	VADDPS       Y9, Y1, Y1
	VADDPS       Y10, Y2, Y2
	VADDPS       Y11, Y3, Y3
	ADDQ         $4, BX
	ADDQ         DX, R11
	DECQ         CX
	JNZ          col2

	ADDQ         R13, BX         // past row c+1 too
	VMOVQ        R10, X4
	VPBROADCASTD X4, Y4
	VPICK(Y0, Y12, Y14, Y4)
	VPICK(Y1, Y13, Y15, Y4)
	INCQ         R10
	VMOVQ        R10, X4
	VPBROADCASTD X4, Y4
	VPICK(Y2, Y12, Y14, Y4)
	VPICK(Y3, Y13, Y15, Y4)
	INCQ         R10
	JMP          rows2

row1:
	CMPQ   R10, R8
	JGE    picked
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, R11
	MOVQ   R9, CX

col1:
	VBROADCASTSS (BX), Y4
	VMOVUPS      0(R11), Y5
	VMOVUPS      32(R11), Y6
	PREFETCHT0   128(R11)
	VSUBPS       Y4, Y5, Y5
	VSUBPS       Y4, Y6, Y6
	VMULPS       Y5, Y5, Y5
	VMULPS       Y6, Y6, Y6
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	ADDQ         $4, BX
	ADDQ         DX, R11
	DECQ         CX
	JNZ          col1

	VMOVQ        R10, X4
	VPBROADCASTD X4, Y4
	VPICK(Y0, Y12, Y14, Y4)
	VPICK(Y1, Y13, Y15, Y4)

picked:
	VMOVDQU Y14, 0(SP)
	VMOVDQU Y15, 32(SP)
	VZEROUPPER
	ADDS
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
