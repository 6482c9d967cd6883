#include "textflag.h"

// coordLanes holds the lane numbers 0-7: lane l of a group starts at
// state z + dz·l.
DATA coordLanes<>+0(SB)/8, $0
DATA coordLanes<>+8(SB)/8, $1
DATA coordLanes<>+16(SB)/8, $2
DATA coordLanes<>+24(SB)/8, $3
DATA coordLanes<>+32(SB)/8, $4
DATA coordLanes<>+40(SB)/8, $5
DATA coordLanes<>+48(SB)/8, $6
DATA coordLanes<>+56(SB)/8, $7
GLOBL coordLanes<>(SB), RODATA|NOPTR, $64

// func coordsAVX512(col []byte, centers []int32, tab *[16]float32, z, dz uint64) (n int)
//
// Each pass writes coordinates i..i+7 from lanes Z0 = z + dz·(i…i+7):
// h = splitmix64's mix of the lane; h>>40 is below 2^24, so narrowing
// it to int32 and converting is exact, and so are ·2^-22 (u·4) and −2.
// VPERMPS picks each coordinate's base from the column's table by its
// center, and one add rounds base + noise, as the Go loop does. Only
// Z0-Z8 are used, so VZEROUPPER clears every upper half the body
// dirtied.
TEXT ·coordsAVX512(SB), NOSPLIT, $0-80
	MOVQ col_base+0(FP), DI
	MOVQ centers_base+24(FP), SI
	MOVQ centers_len+32(FP), CX
	MOVQ tab+48(FP), AX
	ANDQ $~7, CX
	MOVQ CX, n+72(FP)
	TESTQ CX, CX
	JZ   done

	VMOVUPS      (AX), Z8                  // the column's bases, by center
	VPBROADCASTQ dz+64(FP), Z1
	VPMULLQ      coordLanes<>(SB), Z1, Z0
	VPBROADCASTQ z+56(FP), Z2
	VPADDQ       Z2, Z0, Z0                // the group's eight states
	VPSLLQ       $3, Z1, Z1                // dz·8, one group's advance
	MOVQ         $0xbf58476d1ce4e5b9, DX
	VPBROADCASTQ DX, Z2
	MOVQ         $0x94d049bb133111eb, DX
	VPBROADCASTQ DX, Z3
	MOVL         $0x34800000, DX           // 2^-22
	VPBROADCASTD DX, Z4
	MOVL         $0x40000000, DX           // 2.0
	VPBROADCASTD DX, Z5

loop:
	VPSRLQ    $30, Z0, Z6
	VPXORQ    Z0, Z6, Z6
	VPMULLQ   Z2, Z6, Z6
	VPSRLQ    $27, Z6, Z7
	VPXORQ    Z7, Z6, Z6
	VPMULLQ   Z3, Z6, Z6
	VPSRLQ    $31, Z6, Z7
	VPXORQ    Z7, Z6, Z6               // h
	VPADDQ    Z1, Z0, Z0               // the next group's states
	VPSRLQ    $40, Z6, Z6
	VPMOVQD   Z6, Y6                   // below 2^24: fits int32
	VCVTDQ2PS Y6, Y6                   // exact
	VMULPS    Y4, Y6, Y6               // u·4, a power of two: exact
	VSUBPS    Y5, Y6, Y6               // u·4 − 2: exact
	VMOVDQU   (SI), Y7                 // the eight centers
	VPERMPS   Z8, Z7, Z7               // their bases
	VADDPS    Y6, Y7, Y7               // base + noise, rounded once
	VMOVUPS   Y7, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JNZ       loop
	VZEROUPPER

done:
	RET
