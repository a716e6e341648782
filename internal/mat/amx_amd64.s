//go:build amd64 && !purego

#include "textflag.h"

// Go's assembler has no AMX mnemonics, so the tile instructions are
// spelled out in VEX bytes. Every base and stride register below is one
// of AX, CX, DX, BX, SI and DI (numbers 0-3, 6, 7), so the VEX prefix
// never needs the REX extension bits.
//
// LDTILECFG (AX): load the tile configuration, 64 bytes.
#define LDTILECFG_AX BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0x00

// TILERELEASE: return every tile register to its initial state.
#define TILERELEASE BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0xC0

// TILELOADD tmm, (base)(stride*1): the tile's rows, stride bytes apart
// (ModRM 00:tmm:100, SIB 00:stride:base).
#define TILELOADD(tmm, base, stride) BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $(tmm<<3|4); BYTE $(stride<<3|base)

// TILEZERO tmm.
#define TILEZERO(tmm) BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $(0xC0|tmm<<3)

// TILESTORED (base)(stride*1), tmm.
#define TILESTORED(tmm, base, stride) BYTE $0xC4; BYTE $0xE2; BYTE $0x7A; BYTE $0x4B; BYTE $(tmm<<3|4); BYTE $(stride<<3|base)

// TDPBUSD c, a, b: c += a·b, a's bytes unsigned and b's signed, four to
// a dword, summed exactly into c's int32 cells (ModRM 11:c:a, VEX.vvvv
// the complement of b).
#define TDPBUSD(c, a, b) BYTE $0xC4; BYTE $0xE2; BYTE $((15-b)<<3|1); BYTE $0x5E; BYTE $(0xC0|c<<3|a)

// Register numbers in the encodings.
#define rAX 0
#define rCX 1
#define rDX 2
#define rBX 3
#define rSI 6
#define rDI 7

// One row of a 16-row group against the pair's two panels, from the
// dot products TILESTORED left at c0(R13) and c1(R13) plus the panels'
// corr in Z9 and Z10, which makes them the cells D + q_i.q_j: est =
// s_i*(s_j*cell + b_j) + (c_i*s_j + 2^-100), three fused steps, exactly
// CELL_KEEP's, with the panels' s_j and b_j in Z11..Z14, the floor in
// Z15, the row's s_i and c_i read broadcast from s(R8) and f(R8), and its
// bound (NaN made +Inf) from b(BX). The lanes where est is not below the
// bound (NLT_UQ: a NaN est is kept) go to k0 and k1.
#define AMX_ROW(c0, c1, s, f, b, k0, k1) \
	VPADDD           c0(R13), Z9, Z0;      \
	VPADDD           c1(R13), Z10, Z1;     \
	VCVTDQ2PS        Z0, Z0;               \
	VCVTDQ2PS        Z1, Z1;               \
	VFMADD213PS      Z12, Z11, Z0;         \
	VFMADD213PS      Z14, Z13, Z1;         \
	VMOVAPS          Z15, Z2;              \
	VMOVAPS          Z15, Z3;              \
	VFMADD231PS.BCST f(R8), Z11, Z2;       \
	VFMADD231PS.BCST f(R8), Z13, Z3;       \
	VFMADD231PS.BCST s(R8), Z0, Z2;        \
	VFMADD231PS.BCST s(R8), Z1, Z3;        \
	VCMPPS.BCST      $0x15, b(BX), Z2, k0; \
	VCMPPS.BCST      $0x15, b(BX), Z3, k1

// The next row of a strip, its lanes ORed into K1 and K3.
#define AMX_ROW_OR(c0, c1, s, f, b) \
	AMX_ROW(c0, c1, s, f, b, K2, K4); \
	KORW K2, K1, K1;                  \
	KORW K4, K3, K3

// Strip t of the group (rows 4t..4t+3): its 32-bit mask over the pair's
// columns, the even panel's in the low half, cut to the valid columns in
// K6, goes to 4t(R9), and bit q (R10) of the strip's word at 8t(R15) is
// set when the mask is not 0.
//
// First a screen that can only rule the strip out where every one of its
// cells is below its row's bound: per column, from the strip's largest
// cell C, the largest s_i and c_i of its rows, S and F, and its least
// bound (AMX_STRIPS, at 64(BX), 128(BX) and 192(BX)),
//
//	ub = S*max(0, s_j*C + b_j) + (F*s_j + 2^-100)
//
// in the same three fused steps. Every s and b is at least 0 (or b_j
// +Inf), and rounding is monotone, so each cell's est is at most ub: a
// row's s_i*(s_j*cell + b_j) + (c_i*s_j + 2^-100) is below the same
// steps with S, C and F, and below c_i*s_j + 2^-100 alone where s_j*cell
// + b_j < 0. A column whose ub is NaN or not below the least bound is not
// ruled out by the screen, so a NaN est, which the rows keep, is never
// missed: it needs an infinite factor, which makes ub +Inf or NaN too.
// Only a strip the screen cannot rule out takes the rows' estimates.
#define AMX_STRIP(t, exact, skip) \
	VMOVDQU32        (256*t)(R13), Z0;              \
	VPMAXSD          (256*t+64)(R13), Z0, Z0;       \
	VPMAXSD          (256*t+128)(R13), Z0, Z0;      \
	VPMAXSD          (256*t+192)(R13), Z0, Z0;      \
	VMOVDQU32        (1024+256*t)(R13), Z1;         \
	VPMAXSD          (1024+256*t+64)(R13), Z1, Z1;  \
	VPMAXSD          (1024+256*t+128)(R13), Z1, Z1; \
	VPMAXSD          (1024+256*t+192)(R13), Z1, Z1; \
	VPADDD           Z9, Z0, Z0;                    \
	VPADDD           Z10, Z1, Z1;                   \
	VCVTDQ2PS        Z0, Z0;                        \
	VCVTDQ2PS        Z1, Z1;                        \
	VFMADD213PS      Z12, Z11, Z0;                  \
	VFMADD213PS      Z14, Z13, Z1;                  \
	VMAXPS           Z0, Z20, Z0;                   \
	VMAXPS           Z1, Z20, Z1;                   \
	VMOVAPS          Z15, Z2;                       \
	VMOVAPS          Z15, Z3;                       \
	VFMADD231PS.BCST (128+16*t)(BX), Z11, Z2;       \
	VFMADD231PS.BCST (128+16*t)(BX), Z13, Z3;       \
	VFMADD231PS.BCST (64+16*t)(BX), Z0, Z2;         \
	VFMADD231PS.BCST (64+16*t)(BX), Z1, Z3;         \
	VCMPPS.BCST      $0x15, (192+16*t)(BX), Z2, K1; \
	VCMPPS.BCST      $0x15, (192+16*t)(BX), Z3, K3; \
	KUNPCKWD         K1, K3, K2;                    \
	KTESTD           K6, K2;                        \
	JNZ              exact;                         \
	MOVL             $0, (4*t)(R9);                 \
	JMP              skip;                          \
exact:                                              \
	AMX_ROW((256*t), (1024+256*t), (16*t), (64+16*t), (16*t), K1, K3);                \
	AMX_ROW_OR((256*t+64), (1024+256*t+64), (16*t+4), (64+16*t+4), (16*t+4));     \
	AMX_ROW_OR((256*t+128), (1024+256*t+128), (16*t+8), (64+16*t+8), (16*t+8));   \
	AMX_ROW_OR((256*t+192), (1024+256*t+192), (16*t+12), (64+16*t+12), (16*t+12)); \
	KUNPCKWD K1, K3, K2;      \
	KANDD    K6, K2, K2;      \
	KMOVD    K2, AX;          \
	MOVL     AX, (4*t)(R9);   \
	KORTESTD K2, K2;          \
	JZ       skip;            \
	BTSQ     R10, (8*t)(R15); \
skip:

// Strip t's keep word at 8t(R15), from the group's NaN lanes in AX and
// -Inf lanes in R12, both counting the rows it does not own: bit 62 if
// all four of its lanes are set in AX, bit 63 if in R12. Uses R10 and DX.
#define AMX_FLAGS(t, nan, inf) \
	XORQ  R10, R10;        \
	MOVL  AX, DX;          \
	SHRL  $(4*t), DX;      \
	ANDL  $15, DX;         \
	CMPL  DX, $15;         \
	JNE   nan;             \
	BTSQ  $62, R10;        \
nan:                       \
	MOVL  R12, DX;         \
	SHRL  $(4*t), DX;      \
	ANDL  $15, DX;         \
	CMPL  DX, $15;         \
	JNE   inf;             \
	BTSQ  $63, R10;        \
inf:                       \
	MOVQ  R10, (8*t)(R15)

// Per strip of the group, the largest of a 16-lane vector's four lanes
// (op VMAXPS) or the least (VMINPS) in all four: a strip's rows are a
// 128-bit lane.
#define AMX_STRIPS(op, v, tmp) \
	VPERMILPS $0x4e, v, tmp; \
	op        tmp, v, v;     \
	VPERMILPS $0xb1, v, tmp; \
	op        tmp, v, v

// func amxKeep(cfg *amxConfig, r *byte, ldr, groups int, panel *byte, pairs int, corr *int32, col, row, bound *float32, lead, live0, live1 int, valid uint32, buf *int32, masks *uint32, keep *uint64)
//
// The int8 filter's masks of groups 16-row groups of the R layout from
// r (rows ldr = d4 bytes apart) against pairs pairs of panels of the S
// layout from panel, on AMX tiles (package doc, "Int8 filter"), with
// the tile shapes cfg sets up (amxConfig).
//
// First, per group, its rows' bounds and its strips' screen (AMX_STRIP)
// go to buf from 2048 bytes on, 256 bytes a group, and its strips' keep
// words are set (AMX_FLAGS). Then, pair by pair and for each pair group
// by group, the dot products of the group's codes, offset by +128,
// with the pair's two panels' are summed exactly in int32 into two C
// tiles from zero, one TDPBUSD per 64-byte K chunk of each, the last
// chunk shorter where d4 is not a multiple of 64, stored to buf and
// taken from there, with the panels' corr added (D - 128*(code sum)),
// through the screen and, where it cannot rule a strip out, CELL_KEEP's
// estimate, with the panels' meta from col and the rows' from row.
// Where d4 < 128 the pair's B tiles are loaded once for all groups, and
// each group's A tiles once for the pair.
//
// bound is the bound of the first group's row lead: the first group's
// rows outside live0 and the last group's outside live1 are not read and
// have bound +Inf, as has every NaN bound. For strip t of group g and
// pair q, the 32-bit mask of the columns some row keeps goes to
// masks[(g*pairs+q)*4+t] (the last pair's cut to valid), and bit q of
// keep[g*4+t] is set when it is not 0. Bit 62 of a strip's keep word is
// set when the bounds of all its rows the call owns are NaN, bit 63 when
// all are -Inf (amxNaN, amxNegInf), its other bits are clear. buf is
// 2 KB for two C tiles and 256 bytes a group. The tiles are released
// before returning. Needs AMX-TILE, AMX-INT8, AVX-512F and AVX-512BW,
// and at least one group and pair.
TEXT ·amxKeep(SB), NOSPLIT, $0-136
	MOVQ         cfg+0(FP), AX
	LDTILECFG_AX
	MOVQ         ldr+16(FP), CX
	MOVL         $64, DX
	MOVQ         CX, R14
	SHLQ         $4, R14 // a panel's bytes, and a group's: 16*d4
	MOVQ         buf+112(FP), R13
	MOVQ         bound+72(FP), AX
	MOVQ         lead+80(FP), R10
	SHLQ         $2, R10
	SUBQ         R10, AX
	MOVQ         AX, bound+72(FP) // the first group's row 0
	MOVL         $0x0d800000, AX
	VPBROADCASTD AX, Z15             // 2^-100
	MOVL         $0x7f800000, AX
	VPBROADCASTD AX, Z21             // +Inf
	VPXORD       Z20, Z20, Z20       // 0
	MOVL         $0xff800000, AX
	VPBROADCASTD AX, Z22             // -Inf

	// Each group's bounds, +Inf for rows it does not own and NaN ones,
	// at (BX), its strips' S, F and least bound at 64(BX), 128(BX) and
	// 192(BX), and its keep words: bit 62 if all the bounds of a strip's
	// rows are NaN, bit 63 if all are -Inf, the pairs' bits cleared.
	MOVQ row+64(FP), R8
	MOVQ keep+128(FP), R15
	LEAQ 2048(R13), BX
	XORQ R11, R11 // g

amxGroupBounds:
	MOVL  $0xffff, AX
	TESTQ R11, R11
	JNZ   amxInner
	ANDQ  live0+88(FP), AX

amxInner:
	MOVQ groups+24(FP), R12
	DECQ R12
	CMPQ R11, R12
	JNE  amxLive
	ANDQ live1+96(FP), AX

amxLive:
	KMOVW   AX, K5
	MOVQ    bound+72(FP), AX
	VMOVAPS Z21, Z16
	VMOVUPS (AX), K5, Z16
	ADDQ    $64, AX
	MOVQ    AX, bound+72(FP)
	KNOTW   K5, K2
	VCMPPS  $3, Z16, Z16, K1
	KORW    K2, K1, K1
	VCMPPS  $0, Z22, Z16, K3
	KORW    K2, K3, K3
	KMOVW   K1, AX
	KMOVW   K3, R12
	AMX_FLAGS(0, amxNaN0, amxInf0)
	AMX_FLAGS(1, amxNaN1, amxInf1)
	AMX_FLAGS(2, amxNaN2, amxInf2)
	AMX_FLAGS(3, amxNaN3, amxInf3)
	VMINPS  Z21, Z16, Z16
	VMOVUPS Z16, (BX)
	AMX_STRIPS(VMINPS, Z16, Z17)
	VMOVUPS Z16, 192(BX)
	VMOVUPS (R8), Z16
	AMX_STRIPS(VMAXPS, Z16, Z17)
	VMOVUPS Z16, 64(BX)
	VMOVUPS 64(R8), Z16
	AMX_STRIPS(VMAXPS, Z16, Z17)
	VMOVUPS Z16, 128(BX)
	ADDQ    $128, R8
	ADDQ    $32, R15
	ADDQ    $256, BX
	INCQ    R11
	CMPQ    R11, groups+24(FP)
	JLT     amxGroupBounds
	MOVL    $64, DX

	MOVQ panel+32(FP), DI
	XORQ R10, R10 // q

amxPair:
	// The pair's panel meta, corr and valid columns (K6), and, where
	// d4 < 128, its B tiles.
	MOVQ      R10, AX
	SHLQ      $8, AX
	ADDQ      col+56(FP), AX
	VMOVUPS   (AX), Z11
	VMOVUPS   64(AX), Z12
	VMOVUPS   128(AX), Z13
	VMOVUPS   192(AX), Z14
	MOVQ      R10, AX
	SHLQ      $7, AX
	ADDQ      corr+48(FP), AX
	VMOVDQU32 (AX), Z9
	VMOVDQU32 64(AX), Z10
	MOVL      $-1, AX
	MOVQ      pairs+40(FP), R12
	DECQ      R12
	CMPQ      R10, R12
	JNE       amxValid
	MOVL      valid+104(FP), AX

amxValid:
	KMOVD AX, K6
	CMPQ  CX, $128
	JGE   amxGroups
	CMPQ  CX, $64
	JLT   amxPairLast
	TILELOADD(3, rDI, rDX)
	LEAQ  (DI)(R14*1), AX
	TILELOADD(4, rAX, rDX)

amxPairLast:
	TESTQ $63, CX
	JZ    amxGroups
	MOVQ  CX, AX
	ANDQ  $-64, AX
	SHLQ  $4, AX
	ADDQ  DI, AX
	TILELOADD(6, rAX, rDX)
	ADDQ  R14, AX
	TILELOADD(7, rAX, rDX)

amxGroups:
	MOVQ r+8(FP), SI
	MOVQ row+64(FP), R8
	MOVQ keep+128(FP), R15
	LEAQ 2048(R13), BX
	MOVQ masks+120(FP), R9
	MOVQ R10, AX
	SHLQ $4, AX
	ADDQ AX, R9
	XORQ R11, R11 // g

amxGroup:
	// Group g's dot products with the pair into tmm0 and tmm1.
	TILEZERO(0)
	TILEZERO(1)
	CMPQ CX, $128
	JGE  amxMulti
	CMPQ CX, $64
	JLT  amxLast
	TILELOADD(2, rSI, rCX)
	TDPBUSD(0, 2, 3)
	TDPBUSD(1, 2, 4)
	JMP  amxLast

amxMulti:
	// Every whole chunk's A and B, in turn.
	MOVQ CX, R12
	SHRQ $6, R12

amxChunk:
	TILELOADD(2, rSI, rCX)
	TILELOADD(3, rDI, rDX)
	LEAQ (DI)(R14*1), AX
	TILELOADD(4, rAX, rDX)
	TDPBUSD(0, 2, 3)
	TDPBUSD(1, 2, 4)
	ADDQ $64, SI
	ADDQ $1024, DI
	DECQ R12
	JNZ  amxChunk
	MOVQ CX, AX
	ANDQ $-64, AX
	SUBQ AX, SI
	SHLQ $4, AX
	SUBQ AX, DI
	TESTQ $63, CX
	JZ    amxStore
	MOVQ  CX, AX
	ANDQ  $-64, AX
	SHLQ  $4, AX
	ADDQ  DI, AX
	TILELOADD(6, rAX, rDX)
	ADDQ  R14, AX
	TILELOADD(7, rAX, rDX)

amxLast:
	TESTQ $63, CX
	JZ    amxStore
	MOVQ  CX, AX
	ANDQ  $-64, AX
	ADDQ  SI, AX
	TILELOADD(5, rAX, rCX)
	TDPBUSD(0, 5, 6)
	TDPBUSD(1, 5, 7)

amxStore:
	MOVQ R13, AX
	TILESTORED(0, rAX, rDX)
	ADDQ $1024, AX
	TILESTORED(1, rAX, rDX)
	AMX_STRIP(0, amxExact0, amxStrip0)
	AMX_STRIP(1, amxExact1, amxStrip1)
	AMX_STRIP(2, amxExact2, amxStrip2)
	AMX_STRIP(3, amxExact3, amxStrip3)
	ADDQ R14, SI
	ADDQ $128, R8
	ADDQ $32, R15
	ADDQ $256, BX
	MOVQ pairs+40(FP), AX
	SHLQ $4, AX
	ADDQ AX, R9
	INCQ R11
	CMPQ R11, groups+24(FP)
	JLT  amxGroup

	LEAQ (DI)(R14*2), DI
	INCQ R10
	CMPQ R10, pairs+40(FP)
	JLT  amxPair
	TILERELEASE
	VZEROUPPER
	RET


// func amxCells(cfg *amxConfig, r *byte, ldr int, panel *byte, pairs int, corr *int32, out *int32, ldo int)
//
// The top-k's cells of a 16-row group on AMX tiles (package doc, "Top-k
// by candidates"), with the tile shapes cfg sets up (amxConfig.setupCells):
// the group's codes from r, ldr = d4 bytes a row, against each of pairs
// pairs of panels of the S layout from panel, row t's cells against pair
// q to out[t*ldo+32q:][:32], each D + q_i.q_j exactly as int8Strip sums
// it. Each C tile is loaded with its panel's corr in all 16 rows (a
// stride of 0), then takes one TDPBUSD per 64-byte K chunk, the last of
// 4 to 64 bytes, and is stored. Where d4 <= 128 the group's A tiles are
// loaded once. The tiles are released before returning. Needs AMX-TILE
// and AMX-INT8, and at least one pair.
TEXT ·amxCells(SB), NOSPLIT, $0-64
	MOVQ cfg+0(FP), AX
	LDTILECFG_AX
	MOVQ r+8(FP), SI
	MOVQ ldr+16(FP), CX
	MOVQ panel+24(FP), R12
	MOVQ pairs+32(FP), R8
	MOVQ corr+40(FP), R13
	MOVQ out+48(FP), R9
	MOVQ ldo+56(FP), DI
	SHLQ $2, DI  // a row of out's bytes
	MOVL $64, DX
	XORQ BX, BX  // a stride of 0
	MOVQ CX, R14
	SHLQ $4, R14 // a panel's bytes: 16*d4
	MOVQ CX, R15
	DECQ R15
	SHRQ $6, R15 // the whole K chunks before the last
	MOVQ R15, R11
	SHLQ $6, R11 // the last chunk's first byte in a row
	CMPQ R15, $1
	JGT  cellsPair
	JLT  cellsLastA
	TILELOADD(2, rSI, rCX)

cellsLastA:
	LEAQ (SI)(R11*1), AX
	TILELOADD(5, rAX, rCX)

cellsPair:
	MOVQ R13, AX
	TILELOADD(0, rAX, rBX)
	ADDQ $64, AX
	TILELOADD(1, rAX, rBX)
	XORQ R10, R10 // the chunk's first byte in a row

cellsChunk:
	CMPQ R10, R11
	JGE  cellsLast
	CMPQ R15, $1
	JEQ  cellsB
	LEAQ (SI)(R10*1), AX
	TILELOADD(2, rAX, rCX)

cellsB:
	MOVQ R10, AX
	SHLQ $4, AX
	ADDQ R12, AX
	TILELOADD(3, rAX, rDX)
	ADDQ R14, AX
	TILELOADD(4, rAX, rDX)
	TDPBUSD(0, 2, 3)
	TDPBUSD(1, 2, 4)
	ADDQ $64, R10
	JMP  cellsChunk

cellsLast:
	CMPQ R15, $1
	JLE  cellsLastB
	LEAQ (SI)(R11*1), AX
	TILELOADD(5, rAX, rCX)

cellsLastB:
	MOVQ R11, AX
	SHLQ $4, AX
	ADDQ R12, AX
	TILELOADD(6, rAX, rDX)
	ADDQ R14, AX
	TILELOADD(7, rAX, rDX)
	TDPBUSD(0, 5, 6)
	TDPBUSD(1, 5, 7)
	MOVQ R9, AX
	TILESTORED(0, rAX, rDI)
	ADDQ $64, AX
	TILESTORED(1, rAX, rDI)
	LEAQ (R12)(R14*2), R12
	ADDQ $128, R13
	ADDQ $128, R9
	DECQ R8
	JNZ  cellsPair
	TILERELEASE
	RET
