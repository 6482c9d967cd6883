#include "textflag.h"

// genSteps holds γ·1 … γ·8 (mod 2^64), splitmix64's golden gamma times
// each lane's offset from the state before the group.
DATA genSteps<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA genSteps<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA genSteps<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA genSteps<>+24(SB)/8, $0x78dde6e5fd29f054
DATA genSteps<>+32(SB)/8, $0x1715609f7c746c69
DATA genSteps<>+40(SB)/8, $0xb54cda58fbbee87e
DATA genSteps<>+48(SB)/8, $0x538454127b096493
DATA genSteps<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL genSteps<>(SB), RODATA|NOPTR, $64

// genPairs holds the VPERMT2Q indexes that interleave keys (0-7) and
// values (8-15) into records: lanes 0-3 of each, then lanes 4-7.
DATA genPairs<>+0(SB)/8, $0
DATA genPairs<>+8(SB)/8, $8
DATA genPairs<>+16(SB)/8, $1
DATA genPairs<>+24(SB)/8, $9
DATA genPairs<>+32(SB)/8, $2
DATA genPairs<>+40(SB)/8, $10
DATA genPairs<>+48(SB)/8, $3
DATA genPairs<>+56(SB)/8, $11
DATA genPairs<>+64(SB)/8, $4
DATA genPairs<>+72(SB)/8, $12
DATA genPairs<>+80(SB)/8, $5
DATA genPairs<>+88(SB)/8, $13
DATA genPairs<>+96(SB)/8, $6
DATA genPairs<>+104(SB)/8, $14
DATA genPairs<>+112(SB)/8, $7
DATA genPairs<>+120(SB)/8, $15
GLOBL genPairs<>(SB), RODATA|NOPTR, $128

// func generateAVX512(recs []Record, z, mask uint64) (n int, next uint64)
//
// Each pass draws records j..j+7 from lanes Z0 = z + γ·(j+1…j+8):
// h = splitmix64's mix of the lane, key = h & mask and value =
// float32(h>>40) · 2^-24, both exact. The keys and the values, zero
// extended to qwords, are interleaved into eight 16-byte records and
// written with two 64-byte stores. Only Z0-Z11 are used, so VZEROUPPER
// clears every upper half the body dirtied.
TEXT ·generateAVX512(SB), NOSPLIT, $0-56
	MOVQ recs_base+0(FP), DI
	MOVQ recs_len+8(FP), CX
	MOVQ z+24(FP), AX
	ANDQ $~7, CX
	MOVQ CX, n+40(FP)
	MOVQ $0x9e3779b97f4a7c15, DX // next = z + γ·n
	MOVQ CX, R8
	IMULQ DX, R8
	ADDQ AX, R8
	MOVQ R8, next+48(FP)
	TESTQ CX, CX
	JZ   done

	VPBROADCASTQ AX, Z0
	VPADDQ       genSteps<>(SB), Z0, Z0    // the group's eight states
	MOVQ         $0xbf58476d1ce4e5b9, DX
	VPBROADCASTQ DX, Z1
	MOVQ         $0x94d049bb133111eb, DX
	VPBROADCASTQ DX, Z2
	VPBROADCASTQ mask+32(FP), Z3
	MOVQ         $0xf1bbcdcbfa53e0a8, DX   // γ·8
	VPBROADCASTQ DX, Z4
	MOVL         $0x33800000, DX           // 2^-24
	VPBROADCASTD DX, Z5
	VMOVDQU64    genPairs<>+0(SB), Z10
	VMOVDQU64    genPairs<>+64(SB), Z11

loop:
	VPSRLQ    $30, Z0, Z6
	VPXORQ    Z0, Z6, Z6
	VPMULLQ   Z1, Z6, Z6
	VPSRLQ    $27, Z6, Z7
	VPXORQ    Z7, Z6, Z6
	VPMULLQ   Z2, Z6, Z6
	VPSRLQ    $31, Z6, Z7
	VPXORQ    Z7, Z6, Z6               // h
	VPADDQ    Z4, Z0, Z0               // the next group's states
	VPSRLQ    $40, Z6, Z7
	VCVTQQ2PS Z7, Y7                   // below 2^24: exact
	VMULPS    Y5, Y7, Y7               // a power of two: exact
	VPMOVZXDQ Y7, Z7                   // values, one per qword
	VPANDQ    Z3, Z6, Z8               // keys
	VPANDQ    Z3, Z6, Z9
	VPERMT2Q  Z7, Z10, Z8              // records 0-3
	VPERMT2Q  Z7, Z11, Z9              // records 4-7
	VMOVDQU64 Z8, (DI)
	VMOVDQU64 Z9, 64(DI)
	ADDQ      $128, DI
	SUBQ      $8, CX
	JNZ       loop
	VZEROUPPER

done:
	RET
