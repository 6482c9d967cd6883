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

// TRANSPOSE turns lanes O/4..O/4+3 of the column block at R12 (columns
// 0-3 at R12, R12+DX, R12+2·DX and R12+BX; columns 4-7 the same from
// R13) into their point rows Y0..Y3, eight coordinates each. Each
// 128-bit half is loaded from its own column, so the two rounds of
// UNPCKs that finish the 4x4 transposes never cross a lane. Y4..Y7 are
// scratch.
#define TRANSPOSE(O) \
	VMOVUPS     O(R12), X0; \
	VINSERTF128 $1, O(R13), Y0, Y0; \
	VMOVUPS     O(R12)(DX*1), X1; \
	VINSERTF128 $1, O(R13)(DX*1), Y1, Y1; \
	VMOVUPS     O(R12)(DX*2), X2; \
	VINSERTF128 $1, O(R13)(DX*2), Y2, Y2; \
	VMOVUPS     O(R12)(BX*1), X3; \
	VINSERTF128 $1, O(R13)(BX*1), Y3, Y3; \
	VUNPCKLPS   Y1, Y0, Y4; \
	VUNPCKHPS   Y1, Y0, Y5; \
	VUNPCKLPS   Y3, Y2, Y6; \
	VUNPCKHPS   Y3, Y2, Y7; \
	VUNPCKLPD   Y6, Y4, Y0; \
	VUNPCKHPD   Y6, Y4, Y1; \
	VUNPCKLPD   Y7, Y5, Y2; \
	VUNPCKHPD   Y7, Y5, Y3

// ADDROW adds point row P to the eight partial sums at DI+R: load them,
// VADDPS with the sums as first source (so a NaN sum keeps its own
// payload, as ADDSS's destination does), store them. S is scratch.
#define ADDROW(P, R, S) \
	VMOVUPS (DI)(R*1), S; \
	VADDPS  P, S, S; \
	VMOVUPS S, (DI)(R*1)

// QUAD adds lanes L..L+3 to their partial rows, one column block at a
// time, each block's four rows in lane order. O = 4·L is both the
// lanes' byte offset in a column and the frame offset of lane L's int32
// index; F1..F3 are those of lanes L+1..L+3. The lanes' row offsets stay
// in AX, CX, SI and R9 across the blocks, and a lane at or past m (R8)
// adds into the frame's spare row instead (R11). A quad that starts at
// or past m ends the adds. The whole blocks come from the span, the last
// from the frame, and BLK and SPAN name the quad's labels.
#define QUAD(L, O, F1, F2, F3, BLK, SPAN) \
	CMPQ    R8, $L; \
	JLE     added; \
	MOVL    O(SP), AX; \
	IMULQ   R10, AX; \
	MOVL    F1(SP), CX; \
	IMULQ   R10, CX; \
	CMPQ    R8, $(L+1); \
	CMOVQLE R11, CX; \
	MOVL    F2(SP), SI; \
	IMULQ   R10, SI; \
	CMPQ    R8, $(L+2); \
	CMOVQLE R11, SI; \
	MOVL    F3(SP), R9; \
	IMULQ   R10, R9; \
	CMPQ    R8, $(L+3); \
	CMOVQLE R11, R9; \
	MOVQ    acc_base+0(FP), DI; \
	MOVQ    span_base+24(FP), R12; \
	MOVQ    stride+48(FP), DX; \
	SHLQ    $2, DX; \
	LEAQ    (DX)(DX*2), BX; \
	MOVQ    R15, R14; \
BLK: \
	CMPQ    R14, $1; \
	JNE     SPAN; \
	LEAQ    64(SP), R12; \
	MOVQ    $64, DX; \
	MOVQ    $192, BX; \
SPAN: \
	LEAQ    (R12)(DX*4), R13; \
	TRANSPOSE(O); \
	ADDROW(Y0, AX, Y8); \
	ADDROW(Y1, CX, Y9); \
	ADDROW(Y2, SI, Y10); \
	ADDROW(Y3, R9, Y11); \
	ADDQ    $32, DI; \
	LEAQ    (R12)(DX*8), R12; \
	DECQ    R14; \
	JNZ     BLK

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
// The indices go to the frame. Then, for each of the first m lanes in
// point order, its d coordinates are added to acc[best·kmeansRow(d)+j],
// two per loop step, and 1.0 to the count. The partial sum is always
// ADDSS's destination, as in the reference, so a NaN sum keeps its own
// NaN with no check.
//
// The caller guarantees 1 <= m <= 16, k >= 1, 1 <= d <= 64, that the
// span (d-1)*stride+16 float32s fits in span, and that cents holds k·d
// and acc k·kmeansRow(d) float32s.
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

	MOVQ  acc_base+0(FP), DI
	MOVQ  m+56(FP), R8
	LEAQ  8(R9), R10
	ANDQ  $-8, R10               // kmeansRow(d)
	SHLQ  $2, R10                // bytes per partial row
	MOVL  $0x3f800000, AX        // 1.0
	MOVQ  AX, X1
	XORQ  R12, R12               // lane

lane:
	MOVL  0(SP)(R12*4), AX
	IMULQ R10, AX
	LEAQ  (DI)(AX*1), R11
	LEAQ  (SI)(R12*4), R13
	MOVQ  R9, CX
	SHRQ  $1, CX
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
// with a one-row pass.
//
// The adds take four lanes at a time (QUAD) and, for each, one column
// block of eight at a time. A lane's point row of a block (eight of its
// coordinates; in the last block, its d mod 8 last coordinates, then
// 1.0 for the count, then +0) comes from an in-register transpose, and
// is added to its centroid's partial row as one YMM vector. Each
// block's four rows go in lane order, and the blocks touch disjoint
// sums, so every partial sum still receives its points in point order,
// each through one VADDPS with the sum as first source and no FMA: the
// arithmetic of the SSE2 body's ADDSS and of the reference exactly.
// The rows are kmeansRow(d) floats, so a block never reaches the next
// row, and the +0 added to the padding keeps it +0. Whole vectors are
// loaded and stored, never masked, so when consecutive lanes pick one
// row the store forwards to the next load. The frame holds the sixteen
// int32 indices (0-63), the last column block (64-575: the d mod 8
// columns past the whole blocks, copied, then a column of 1.0 and
// columns of +0) and a spare row (576-863, kmeansRow(64) floats) that
// takes the adds of lanes at or past m, so the block loop has no branch
// per lane. Only VEX encodings run until the closing VZEROUPPER.
//
// A launch's point block usually comes from beyond the L2 cache, so each
// column step also prefetches column j 128 bytes on: the line of the
// group after next where the column is 64-byte aligned, else the next
// group's second line, which this group's loads do not touch. A
// prefetch is only a hint: it never faults and never changes a value,
// so it may point past the span.
//
// It has the same caller guarantees as assignGroupSSE2, and runs only
// where cpuHasAVX2 holds. Its frame is too large for NOSPLIT, so the
// assembler adds the stack check.
TEXT ·assignGroupAVX2(SB), $864-104
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

	// The last column block, at 64(SP): the d mod 8 columns past the
	// whole blocks, then a column of 1.0, then columns of +0, each
	// sixteen lanes (64 bytes).
	MOVQ    R9, AX
	ANDQ    $-8, AX
	IMULQ   DX, AX
	LEAQ    (SI)(AX*1), R11
	LEAQ    64(SP), DI
	MOVQ    R9, CX
	ANDQ    $7, CX
	JZ      ones

tailcol:
	VMOVUPS 0(R11), Y0
	VMOVUPS 32(R11), Y1
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    DX, R11
	ADDQ    $64, DI
	DECQ    CX
	JNZ     tailcol

ones:
	MOVL         $0x3f800000, AX // 1.0
	VMOVD        AX, X0
	VBROADCASTSS X0, Y0
	VMOVUPS      Y0, 0(DI)
	VMOVUPS      Y0, 32(DI)
	VXORPS       Y0, Y0, Y0
	LEAQ         576(SP), AX     // the end of the last block

zeros:
	ADDQ    $64, DI
	CMPQ    DI, AX
	JEQ     adds
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y0, 32(DI)
	JMP     zeros

adds:
	MOVQ m+56(FP), R8
	LEAQ 8(R9), R10
	ANDQ $-8, R10                // kmeansRow(d)
	SHLQ $2, R10                 // bytes per partial row
	MOVQ acc_base+0(FP), AX
	LEAQ 576(SP), R11
	SUBQ AX, R11                 // the spare row, as an offset from acc
	MOVQ R9, R15
	SHRQ $3, R15
	INCQ R15                     // column blocks, the last from the frame
	QUAD(0, 0, 4, 8, 12, blk0, span0)
	QUAD(4, 16, 20, 24, 28, blk1, span1)
	QUAD(8, 32, 36, 40, 44, blk2, span2)
	QUAD(12, 48, 52, 56, 60, blk3, span3)

added:
	VZEROUPPER
	RET
