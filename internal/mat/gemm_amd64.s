//go:build amd64 && !purego

#include "textflag.h"

// One k step of one R row against a 16-column panel held in Y8:Y9.
// The element is broadcast to all lanes and fused into the accumulators:
// acc = fma(r[k], panel[k], acc), one rounding per lane, exactly fma32
// and so dotSeq's step.
#define ROW_STEP(rbase, lo, hi) \
	VBROADCASTSS (rbase)(AX*4), Y10; \
	VFMADD231PS  Y8, Y10, lo;        \
	VFMADD231PS  Y9, Y10, hi

// A 4x16 tile's accumulators, Y0:Y1 .. Y6:Y7 for rows SI, R10, R11, R12,
// and its k counter AX, cleared.
#define ZERO4 \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7; \
	XORQ AX, AX

// The tile's k loop from AX up to lim against the panel at DX. gemm4x16
// runs it once to d; gemm4x16ge runs it checkpoint to checkpoint on the
// same accumulators, so the stored and the compared tile are the same
// instruction stream.
#define STEPS4(lim) \
	CMPQ AX, lim; \
	JGE  done4; \
loop4: \
	VMOVUPS (DX), Y8; \
	VMOVUPS 32(DX), Y9; \
	ROW_STEP(SI, Y0, Y1); \
	ROW_STEP(R10, Y2, Y3); \
	ROW_STEP(R11, Y4, Y5); \
	ROW_STEP(R12, Y6, Y7); \
	ADDQ $64, DX; \
	INCQ AX; \
	CMPQ AX, lim; \
	JLT  loop4; \
done4:

// The one-row k loop: Y0:Y1 accumulate row SI.
#define ACCUM1 \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	XORQ AX, AX; \
	CMPQ AX, CX; \
	JGE  done1; \
loop1: \
	VMOVUPS (DX), Y8; \
	VMOVUPS 32(DX), Y9; \
	ROW_STEP(SI, Y0, Y1); \
	ADDQ $64, DX; \
	INCQ AX; \
	CMPQ AX, CX; \
	JLT  loop1; \
done1:

// One row's 16 lanes compared with its bound: bit jj of the result is
// lane jj >= bound (ordered: a NaN lane is never set). The 16 bits are
// shifted into place and ORed into R13.
#define ROW_MASK(off, lo, hi, shift) \
	VBROADCASTSS off(BX), Y8;       \
	VCMPPS       $0x1D, Y8, lo, Y9;  \
	VCMPPS       $0x1D, Y8, hi, Y10; \
	VMOVMSKPS    Y9, AX;             \
	VMOVMSKPS    Y10, R8;            \
	SHLQ         $8, R8;             \
	ORQ          R8, AX;             \
	SHLQ         $shift, AX;         \
	ORQ          AX, R13

// One row of a checkpoint: with a_i at off(R9), b in Y13:Y14 and the
// row's bound at off(BX), every lane must satisfy acc + a_i*b < bound,
// the estimate fused and rounded once (ordered: a NaN or infinite
// estimate keeps the tile), or the bound be NaN, which nothing reaches;
// otherwise the tile goes on.
#define ROW_PRUNABLE(off, lo, hi) \
	VBROADCASTSS off(R9), Y10;        \
	VMOVAPS      lo, Y11;             \
	VMOVAPS      hi, Y12;             \
	VFMADD231PS  Y13, Y10, Y11;       \
	VFMADD231PS  Y14, Y10, Y12;       \
	VBROADCASTSS off(BX), Y10;        \
	VCMPPS       $0x11, Y10, Y11, Y11; \
	VCMPPS       $0x11, Y10, Y12, Y12; \
	VANDPS       Y11, Y12, Y12;       \
	VCMPPS       $0x03, Y10, Y10, Y11; \
	VORPS        Y11, Y12, Y12;       \
	VMOVMSKPS    Y12, R13;            \
	CMPL         R13, $0xFF;          \
	JNE          resume4

// func gemm4x16(dst *float32, ldd int, r *float32, ldr int, panel *float32, d int)
//
// dst[i*ldd+jj] = fmaSeq over ascending k of r[i*ldr+k] and
// panel[k*16+jj] — acc = fma(r, panel, acc) from +0 — for i in [0,4),
// jj in [0,16). Strides are in elements.
TEXT ·gemm4x16(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ r+16(FP), SI
	MOVQ ldr+24(FP), R9
	MOVQ panel+32(FP), DX
	MOVQ d+40(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12

	ZERO4
	STEPS4(CX)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func gemm1x16(dst, r, panel *float32, d int)
//
// The remainder-row variant: dst[jj] = fmaSeq over ascending k of r[k]
// and panel[k*16+jj], jj in [0,16).
TEXT ·gemm1x16(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ r+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ d+24(FP), CX

	ACCUM1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func gemm4x16ge(tile, r *float32, ldr int, panel *float32, d int, bound, a, b *float32, first int) (mask uint64, k int)
//
// gemm4x16's tile, compared instead of stored: bit i*16+jj of mask is
// set when cell (i,jj) >= bound[i]. Only when some bit is set is the
// tile written, densely (tile[i*16+jj]), for the caller to read the
// qualifying cells from.
//
// The k loop pauses at k = first, first+16, ... <= d-16 and returns mask
// 0 and that k if no cell can still reach its bound: a[c*16+i] and
// b[c*16+jj] are the rows' and the columns' suffix factors at the c-th
// pause (suffixFactors), whose product bounds what the remaining steps
// can add (package doc, "Early exit"). Otherwise, and always when
// first > d-16, k is d.
TEXT ·gemm4x16ge(SB), NOSPLIT, $0-88
	MOVQ r+8(FP), SI
	MOVQ ldr+16(FP), R9
	MOVQ panel+24(FP), DX
	MOVQ d+32(FP), CX
	MOVQ bound+40(FP), BX
	SHLQ $2, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	MOVQ a+48(FP), R9
	MOVQ b+56(FP), DI
	MOVQ first+64(FP), R8 // where the k loop pauses next

	ZERO4

segment4:
	LEAQ 16(R8), R13
	CMPQ R13, CX
	JLE  steps4
	MOVQ CX, R8 // fewer than 16 steps would be left: run to the end

steps4:
	STEPS4(R8)
	CMPQ AX, CX
	JGE  compare4
	VMOVUPS (DI), Y13
	VMOVUPS 32(DI), Y14
	ROW_PRUNABLE(0, Y0, Y1)
	ROW_PRUNABLE(4, Y2, Y3)
	ROW_PRUNABLE(8, Y4, Y5)
	ROW_PRUNABLE(12, Y6, Y7)
	MOVQ AX, k+80(FP)
	MOVQ $0, mask+72(FP)
	VZEROUPPER
	RET

resume4:
	ADDQ $64, R9
	ADDQ $64, DI
	ADDQ $16, R8
	JMP  segment4

compare4:
	MOVQ AX, k+80(FP)
	XORQ R13, R13
	ROW_MASK(0, Y0, Y1, 0)
	ROW_MASK(4, Y2, Y3, 16)
	ROW_MASK(8, Y4, Y5, 32)
	ROW_MASK(12, Y6, Y7, 48)
	MOVQ  R13, mask+72(FP)
	TESTQ R13, R13
	JZ    none4
	MOVQ    tile+0(FP), DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)

none4:
	VZEROUPPER
	RET

// func gemm1x16ge(tile, r, panel *float32, d int, bound *float32) uint64
//
// The remainder-row variant: 16 result bits, tile[jj].
TEXT ·gemm1x16ge(SB), NOSPLIT, $0-48
	MOVQ r+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ d+24(FP), CX
	MOVQ bound+32(FP), BX

	ACCUM1
	XORQ R13, R13
	ROW_MASK(0, Y0, Y1, 0)
	MOVQ  R13, ret+40(FP)
	TESTQ R13, R13
	JZ    none1
	MOVQ    tile+0(FP), DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)

none1:
	VZEROUPPER
	RET

// The 4x32 tile on ZMM registers, for hosts with AVX-512F: two
// neighbouring 16-column panels, the second R14 bytes past the first,
// and eight accumulators, Z0..Z3 for the first panel and Z4..Z7 for the
// second, of rows SI, R10, R11, R12; AX is the k counter, cleared.
#define ZERO4X32 \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	VPXORD Z2, Z2, Z2; \
	VPXORD Z3, Z3, Z3; \
	VPXORD Z4, Z4, Z4; \
	VPXORD Z5, Z5, Z5; \
	VPXORD Z6, Z6, Z6; \
	VPXORD Z7, Z7, Z7; \
	XORQ AX, AX

// The 4x32 tile's k loop from AX up to lim: per k one 64-byte load of
// each panel's row, four broadcasts and eight VFMADD231PS, so eight
// independent sums hide the fused add's latency. Each lane performs the
// YMM tile's operation sequence, so every cell is dotSeq's bits again;
// the stored and the compared ZMM tile both run it.
#define STEPS4X32(lim) \
	CMPQ AX, lim; \
	JGE  done4z; \
loop4z: \
	VMOVUPS      (DX), Z8; \
	VMOVUPS      (DX)(R14*1), Z9; \
	VBROADCASTSS (SI)(AX*4), Z10; \
	VBROADCASTSS (R10)(AX*4), Z11; \
	VBROADCASTSS (R11)(AX*4), Z12; \
	VBROADCASTSS (R12)(AX*4), Z13; \
	VFMADD231PS  Z8, Z10, Z0; \
	VFMADD231PS  Z9, Z10, Z4; \
	VFMADD231PS  Z8, Z11, Z1; \
	VFMADD231PS  Z9, Z11, Z5; \
	VFMADD231PS  Z8, Z12, Z2; \
	VFMADD231PS  Z9, Z12, Z6; \
	VFMADD231PS  Z8, Z13, Z3; \
	VFMADD231PS  Z9, Z13, Z7; \
	ADDQ $64, DX; \
	INCQ AX; \
	CMPQ AX, lim; \
	JLT  loop4z; \
done4z:

// ROW_MASK on ZMM: the 16 lanes >= the row's bound (ordered) land in K1,
// and KMOVW moves them to AX.
#define ROW_MASK_Z(off, acc, shift) \
	VBROADCASTSS off(BX), Z8;         \
	VCMPPS       $0x1D, Z8, acc, K1;  \
	KMOVW        K1, AX;              \
	SHLQ         $shift, AX;          \
	ORQ          AX, R13

// ROW_PRUNABLE for one row of the 4x32 tile, with the two panels'
// factors in Z14 and Z15: K1 and K3 hold the lanes whose fused estimate
// acc + a_i*b is below the bound (LT_OQ), K2 all lanes if the bound is
// NaN (UNORD); KORTESTW sets CF only if K1&K3 | K2 is 0xFFFF, so the
// tile stops only when all 32 cells of every row can.
#define ROW_PRUNABLE_Z(off, acc0, acc1) \
	VBROADCASTSS off(R9), Z10;         \
	VMOVAPS      acc0, Z11;            \
	VMOVAPS      acc1, Z12;            \
	VFMADD231PS  Z14, Z10, Z11;        \
	VFMADD231PS  Z15, Z10, Z12;        \
	VBROADCASTSS off(BX), Z10;         \
	VCMPPS       $0x11, Z10, Z11, K1;  \
	VCMPPS       $0x11, Z10, Z12, K3;  \
	KANDW        K3, K1, K1;           \
	VCMPPS       $0x03, Z10, Z10, K2;  \
	KORTESTW     K2, K1;               \
	JCC          resume4z

// func gemm4x32zmm(dst *float32, ldd int, r *float32, ldr int, panel *float32, d int)
//
// dst[i*ldd+p*16+jj] = fmaSeq over ascending k of r[i*ldr+k] and
// panel[p*16*d+k*16+jj], for i in [0,4), panels p = 0, 1 and jj in
// [0,16): gemm4x16 over two neighbouring panels at once, the same cells
// bit for bit. Strides are in elements. Needs AVX-512F.
TEXT ·gemm4x32zmm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ r+16(FP), SI
	MOVQ ldr+24(FP), R9
	MOVQ panel+32(FP), DX
	MOVQ d+40(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	MOVQ CX, R14
	SHLQ $6, R14 // the second panel: 16 columns of d further on

	ZERO4X32
	STEPS4X32(CX)
	VMOVUPS Z0, (DI)
	VMOVUPS Z4, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z1, (DI)
	VMOVUPS Z5, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z2, (DI)
	VMOVUPS Z6, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z3, (DI)
	VMOVUPS Z7, 64(DI)
	VZEROUPPER
	RET

// func gemm4x32gezmm(tile, r *float32, ldr int, panel *float32, d int, bound, a, b *float32, first int) (mask0, mask1 uint64, k int)
//
// gemm4x32zmm's tile, compared instead of stored: bit i*16+jj of maskp
// is set when cell (i, p*16+jj) >= bound[i], and only when some bit is
// set is the tile written, panel by panel (tile[p*64+i*16+jj]). It
// pauses as gemm4x16ge does, with the first panel's factors at b and the
// second's at b+16*(d/16-1) — the next group of suffixFactors' layout —
// and stops only when no cell of either panel can still reach its
// bound. Needs AVX-512F.
TEXT ·gemm4x32gezmm(SB), NOSPLIT, $0-96
	MOVQ r+8(FP), SI
	MOVQ ldr+16(FP), R9
	MOVQ panel+24(FP), DX
	MOVQ d+32(FP), CX
	MOVQ bound+40(FP), BX
	SHLQ $2, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	MOVQ a+48(FP), R9
	MOVQ b+56(FP), DI
	MOVQ first+64(FP), R8 // where the k loop pauses next
	MOVQ CX, R14
	SHLQ $6, R14 // the second panel: 16 columns of d further on
	MOVQ CX, R15
	SHRQ $4, R15
	DECQ R15
	SHLQ $6, R15 // its factors: 16 per checkpoint further on

	ZERO4X32

segment4z:
	LEAQ 16(R8), R13
	CMPQ R13, CX
	JLE  steps4z
	MOVQ CX, R8 // fewer than 16 steps would be left: run to the end

steps4z:
	STEPS4X32(R8)
	CMPQ AX, CX
	JGE  compare4z
	VMOVUPS (DI), Z14
	VMOVUPS (DI)(R15*1), Z15
	ROW_PRUNABLE_Z(0, Z0, Z4)
	ROW_PRUNABLE_Z(4, Z1, Z5)
	ROW_PRUNABLE_Z(8, Z2, Z6)
	ROW_PRUNABLE_Z(12, Z3, Z7)
	MOVQ AX, k+88(FP)
	MOVQ $0, mask0+72(FP)
	MOVQ $0, mask1+80(FP)
	VZEROUPPER
	RET

resume4z:
	ADDQ $64, R9
	ADDQ $64, DI
	ADDQ $16, R8
	JMP  segment4z

compare4z:
	MOVQ AX, k+88(FP)
	XORQ R13, R13
	ROW_MASK_Z(0, Z0, 0)
	ROW_MASK_Z(4, Z1, 16)
	ROW_MASK_Z(8, Z2, 32)
	ROW_MASK_Z(12, Z3, 48)
	MOVQ R13, mask0+72(FP)
	MOVQ R13, R15
	XORQ R13, R13
	ROW_MASK_Z(0, Z4, 0)
	ROW_MASK_Z(4, Z5, 16)
	ROW_MASK_Z(8, Z6, 32)
	ROW_MASK_Z(12, Z7, 48)
	MOVQ R13, mask1+80(FP)
	ORQ  R13, R15
	JZ   none4z
	MOVQ    tile+0(FP), DI
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)

none4z:
	VZEROUPPER
	RET

// func int8Stats(x *float32, d, n int, out *float32)
//
// For each of n rows of d elements, one after the other from x, the
// largest |x[k]| and the float32 sum of all |x[k]| go to out[2j] and
// out[2j+1]: sixteen lanes at a time and the last d%16 elements through
// a zeroing masked load, so nothing past a row is read. A NaN component
// makes the sum NaN (the largest may then be anything). Needs AVX-512F.
TEXT ·int8Stats(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         d+8(FP), CX
	MOVQ         n+16(FP), R8
	MOVQ         out+24(FP), DI
	MOVL         $0x7fffffff, AX
	VPBROADCASTD AX, Z8
	MOVQ         CX, R9
	ANDQ         $15, R9 // the tail's length
	MOVL         $1, AX
	SHLXL        R9, AX, AX
	DECL         AX
	KMOVW        AX, K1

statsRow:
	VPXORD Z0, Z0, Z0 // max |x|
	VPXORD Z1, Z1, Z1 // sum |x|
	MOVQ   CX, DX
	SHRQ   $4, DX
	JZ     statsTail

statsLoop:
	VPANDD (SI), Z8, Z2
	VMAXPS Z2, Z0, Z0
	VADDPS Z2, Z1, Z1
	ADDQ   $64, SI
	DECQ   DX
	JNZ    statsLoop

statsTail:
	TESTQ     R9, R9
	JZ        statsReduce
	VMOVUPS.Z (SI), K1, Z2
	VPANDD    Z2, Z8, Z2
	VMAXPS    Z2, Z0, Z0
	VADDPS    Z2, Z1, Z1
	LEAQ      (SI)(R9*4), SI

statsReduce:
	VEXTRACTF64X4 $1, Z0, Y2
	VEXTRACTF64X4 $1, Z1, Y3
	VMAXPS        Y2, Y0, Y0
	VADDPS        Y3, Y1, Y1
	VEXTRACTF128  $1, Y0, X2
	VEXTRACTF128  $1, Y1, X3
	VMAXPS        X2, X0, X0
	VADDPS        X3, X1, X1
	VPERMILPS     $0x4E, X0, X2
	VPERMILPS     $0x4E, X1, X3
	VMAXPS        X2, X0, X0
	VADDPS        X3, X1, X1
	VPERMILPS     $0xB1, X0, X2
	VPERMILPS     $0xB1, X1, X3
	VMAXPS        X2, X0, X0
	VADDPS        X3, X1, X1
	VMOVSS        X0, (DI)
	VMOVSS        X1, 4(DI)
	ADDQ          $8, DI
	DECQ          R8
	JNZ           statsRow
	VZEROUPPER
	RET

// One group of four codes, dword g of X1, stored at (DI) and DI moved to
// the next group's slot R8 bytes on.
#define STORE_GROUP(g) \
	VPEXTRD $g, X1, (DI); \
	ADDQ    R8, DI

// func int8Quant(x *float32, d, n int, inv *float32, dst *byte, rowStep, groupStep, stride int, flip uint32, sums *int32)
//
// The int8 codes of n rows of d elements, one after the other from x:
// q[k] = x[k]*inv[j] rounded to nearest even (VCVTPS2DQ) and saturated
// to a byte (VPMOVSDB), in groups of four k. Group g of row j, codes
// 4g..4g+3 XORed bytewise with flip, is the dword at
// dst + (j/16)*groupStep + (j%16)*rowStep + g*stride, for
// g < ceil(d/4), the last group padded with code 0; sums[j] is the sum
// of row j's codes before the flip. Needs AVX-512F.
TEXT ·int8Quant(SB), NOSPLIT, $0-80
	MOVQ         x+0(FP), SI
	MOVQ         d+8(FP), CX
	MOVQ         n+16(FP), R10
	MOVQ         inv+24(FP), R11
	MOVQ         dst+32(FP), R12
	MOVQ         rowStep+40(FP), R13
	MOVQ         stride+56(FP), R8
	MOVL         flip+64(FP), AX
	VMOVD        AX, X9
	VPBROADCASTD X9, X9
	MOVQ         sums+72(FP), BX
	MOVQ         CX, R9
	ANDQ         $15, R9 // the tail's length
	MOVL         $1, AX
	SHLXL        R9, AX, AX
	DECL         AX
	KMOVW        AX, K1
	XORQ         R14, R14 // j%16
	MOVQ         R12, R15 // the row's group of 16

quantRow:
	VBROADCASTSS (R11), Z8
	MOVQ         R13, DI
	IMULQ        R14, DI
	ADDQ         R15, DI
	VPXORD       Z10, Z10, Z10 // code sums
	MOVQ         CX, DX
	SHRQ         $4, DX
	JZ           quantTail

quantLoop:
	VMULPS           (SI), Z8, Z0
	VCVTPS2DQ.RN_SAE Z0, Z0
	VPADDD           Z0, Z10, Z10
	VPMOVSDB         Z0, X1
	VPXOR            X9, X1, X1
	STORE_GROUP(0)
	STORE_GROUP(1)
	STORE_GROUP(2)
	STORE_GROUP(3)
	ADDQ             $64, SI
	DECQ             DX
	JNZ              quantLoop

quantTail:
	TESTQ            R9, R9
	JZ               quantSum
	VMOVUPS.Z        (SI), K1, Z0
	LEAQ             (SI)(R9*4), SI
	VMULPS           Z0, Z8, Z0
	VCVTPS2DQ.RN_SAE Z0, Z0
	VPADDD           Z0, Z10, Z10
	VPMOVSDB         Z0, X1
	VPXOR            X9, X1, X1
	STORE_GROUP(0)
	CMPQ             R9, $4
	JLE              quantSum
	STORE_GROUP(1)
	CMPQ             R9, $8
	JLE              quantSum
	STORE_GROUP(2)
	CMPQ             R9, $12
	JLE              quantSum
	STORE_GROUP(3)

quantSum:
	VEXTRACTI64X4 $1, Z10, Y1
	VPADDD        Y1, Y10, Y10
	VEXTRACTI128  $1, Y10, X1
	VPADDD        X1, X10, X10
	VPSHUFD       $0x4E, X10, X1
	VPADDD        X1, X10, X10
	VPSHUFD       $0xB1, X10, X1
	VPADDD        X1, X10, X10
	VMOVD         X10, AX
	MOVL          AX, (BX)
	ADDQ          $4, BX
	ADDQ          $4, R11
	INCQ          R14
	CMPQ          R14, $16
	JLT           quantNext
	XORQ          R14, R14
	ADDQ          groupStep+48(FP), R15

quantNext:
	DECQ R10
	JNZ  quantRow
	VZEROUPPER
	RET

// One row's scale and c at rowoff(R8) and cioff(R8) into Z16 and Z17.
#define ROW_META(rowoff, cioff) \
	VBROADCASTSS rowoff(R8), Z16; \
	VBROADCASTSS cioff(R8), Z17

// One k-group of the int8 tile: the two panels' 64 bytes at poff(DX)
// and poff(DX)(R14*1) into p0 and p1, each row's four codes at roff(AX)
// from its row pointer broadcast into b0..b3, and eight VPDPBUSD into
// the accumulators a0..a7, rows 0-3 against the first panel, then the
// second.
#define GROUP(poff, roff, p0, p1, b0, b1, b2, b3, a0, a1, a2, a3, a4, a5, a6, a7) \
	VMOVDQU32    poff(DX), p0;           \
	VMOVDQU32    poff(DX)(R14*1), p1;    \
	VPBROADCASTD roff(SI)(AX*1), b0;     \
	VPBROADCASTD roff(R10)(AX*1), b1;    \
	VPBROADCASTD roff(R11)(AX*1), b2;    \
	VPBROADCASTD roff(R12)(AX*1), b3;    \
	VPDPBUSD     p0, b0, a0;             \
	VPDPBUSD     p1, b0, a4;             \
	VPDPBUSD     p0, b1, a1;             \
	VPDPBUSD     p1, b1, a5;             \
	VPDPBUSD     p0, b2, a2;             \
	VPDPBUSD     p1, b2, a6;             \
	VPDPBUSD     p0, b3, a3;             \
	VPDPBUSD     p1, b3, a7

// The int8 tile's set-up and k loop, which int8TileGE and int8Strip
// share: four rows of codes offset by +128 from r, ldr bytes apart,
// against two neighbouring panels of signed codes from panel, groups*64
// bytes each. Per k-group one 64-byte load of each panel (four k of 16
// columns) and a broadcast of each row's four codes feed eight VPDPBUSD,
// which sum exactly in int32. Even groups go into Z0..Z7, which start
// from the columns' corr[0..31], D - 128*(code sum) each, and odd ones
// into Z16..Z23, from 0: sixteen independent sums keep both VPDPBUSD
// ports busy through its latency. Their sum, exact, is left in Z0..Z7
// (rows 0-3 against the first panel, then the second): D plus each
// cell's signed codes' dot. The arguments come in registers: r in SI,
// ldr in R9, panel in DX, groups in CX, corr in AX; R14 is left holding
// a panel's bytes, groups*64. SI, R9, CX, DI, R8, R13 and R15 are kept.
#define INT8_DOTS \
	LEAQ      (SI)(R9*1), R10;                                                          \
	LEAQ      (R10)(R9*1), R11;                                                         \
	LEAQ      (R11)(R9*1), R12;                                                         \
	MOVQ      CX, R14;                                                                  \
	SHLQ      $6, R14;                                                                  \
	VMOVDQU32 (AX), Z0;                                                                 \
	VMOVDQU32 64(AX), Z4;                                                               \
	VMOVDQA32 Z0, Z1;                                                                   \
	VMOVDQA32 Z0, Z2;                                                                   \
	VMOVDQA32 Z0, Z3;                                                                   \
	VMOVDQA32 Z4, Z5;                                                                   \
	VMOVDQA32 Z4, Z6;                                                                   \
	VMOVDQA32 Z4, Z7;                                                                   \
	VPXORD    Z16, Z16, Z16;                                                            \
	VPXORD    Z17, Z17, Z17;                                                            \
	VPXORD    Z18, Z18, Z18;                                                            \
	VPXORD    Z19, Z19, Z19;                                                            \
	VPXORD    Z20, Z20, Z20;                                                            \
	VPXORD    Z21, Z21, Z21;                                                            \
	VPXORD    Z22, Z22, Z22;                                                            \
	VPXORD    Z23, Z23, Z23;                                                            \
	XORQ      AX, AX;                                                                   \
	MOVQ      CX, BX;                                                                   \
	SHRQ      $1, BX;                                                                   \
	JZ        tileOdd;                                                                  \
tilePairs:;                                                                                 \
	GROUP(0, 0, Z8, Z9, Z10, Z11, Z12, Z13, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7);            \
	GROUP(64, 4, Z24, Z25, Z26, Z27, Z28, Z29, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23); \
	ADDQ $128, DX;                                                                      \
	ADDQ $8, AX;                                                                        \
	DECQ BX;                                                                            \
	JNZ  tilePairs;                                                                     \
tileOdd:;                                                                                   \
	TESTQ $1, CX;                                                                       \
	JZ    tileSum;                                                                      \
	GROUP(0, 0, Z8, Z9, Z10, Z11, Z12, Z13, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7);            \
tileSum:;                                                                                   \
	VPADDD Z16, Z0, Z0;                                                                 \
	VPADDD Z17, Z1, Z1;                                                                 \
	VPADDD Z18, Z2, Z2;                                                                 \
	VPADDD Z19, Z3, Z3;                                                                 \
	VPADDD Z20, Z4, Z4;                                                                 \
	VPADDD Z21, Z5, Z5;                                                                 \
	VPADDD Z22, Z6, Z6;                                                                 \
	VPADDD Z23, Z7, Z7

// INT8_DOTS, then the panels' scales and b from col (DI) to Z11..Z14,
// the floor 2^-100 to Z15 and +Inf to Z21, for int8TileGE.
#define INT8_TILE \
	INT8_DOTS;                  \
	VMOVUPS      (DI), Z11;     \
	VMOVUPS      64(DI), Z12;   \
	VMOVUPS      128(DI), Z13;  \
	VMOVUPS      192(DI), Z14;  \
	MOVL         $0x0d800000, AX; \
	VPBROADCASTD AX, Z15;       \
	MOVL         $0x7f800000, AX; \
	VPBROADCASTD AX, Z21

// One row of the int8 tile against one panel, for int8TileGE: the
// cells in acc become est = s_i*(s_j*dot + b_j) + (c_i*s_j + 2^-100),
// three fused steps, with s_i and c_i in Z16 and Z17, the panel's s_j
// and b_j in sj and bj, the floor in Z15 and the row's bound, a NaN one
// made +Inf, in Z18. The lanes where est is not below the bound (NLT_UQ:
// a NaN est is kept) are ORed into keep.
#define CELL_KEEP(acc, sj, bj, keep) \
	VCVTDQ2PS   acc, acc;            \
	VFMADD213PS bj, sj, acc;         \
	VMOVAPS     Z15, Z19;            \
	VFMADD231PS sj, Z17, Z19;        \
	VFMADD231PS acc, Z16, Z19;       \
	VCMPPS      $0x15, Z18, Z19, K2; \
	KORW        K2, keep, keep

// One row's scale and c at rowoff(R8) and cioff(R8), its bound at
// boundoff(BX), and its cells against both panels.
#define ROW_KEEP(rowoff, cioff, boundoff, acc0, acc1) \
	ROW_META(rowoff, cioff);        \
	VBROADCASTSS boundoff(BX), Z18; \
	VMINPS       Z21, Z18, Z18;     \
	CELL_KEEP(acc0, Z11, Z12, K1);  \
	CELL_KEEP(acc1, Z13, Z14, K3)

// func int8TileGE(r *byte, ldr int, panel *byte, groups int, corr *int32, col, row, bound *float32) (keep uint32)
//
// The int8 filter's 4x32 tile (package doc, "Int8 filter"), INT8_TILE
// on its arguments: col holds the first panel's 16 scales and 16 b,
// then the second's; row holds the four rows' scales at 0, 4, 8, 12 and
// their c 64 bytes on, and bound their bounds. Bit p*16+jj of keep is
// set when column p*16+jj's estimate reaches the bound of one of the
// rows, or is NaN. Needs AVX-512F and AVX-512 VNNI.
TEXT ·int8TileGE(SB), NOSPLIT, $0-68
	MOVQ r+0(FP), SI
	MOVQ ldr+8(FP), R9
	MOVQ panel+16(FP), DX
	MOVQ groups+24(FP), CX
	MOVQ corr+32(FP), AX
	MOVQ col+40(FP), DI
	MOVQ row+48(FP), R8
	INT8_TILE
	MOVQ bound+56(FP), BX
	KXORW K1, K1, K1
	KXORW K3, K3, K3
	ROW_KEEP(0, 64, 0, Z0, Z4)
	ROW_KEEP(4, 68, 4, Z1, Z5)
	ROW_KEEP(8, 72, 8, Z2, Z6)
	ROW_KEEP(12, 76, 12, Z3, Z7)
	KMOVW K1, AX
	KMOVW K3, DX
	SHLL  $16, DX
	ORL   DX, AX
	MOVL  AX, keep+64(FP)
	VZEROUPPER
	RET

// func int8Strip(r *byte, ldr int, panel *byte, groups int, corr *int32, pairs int, out *int32, ldo int)
//
// The top-k's cells of a 4-row strip on VPDPBUSD (package doc, "Top-k
// by candidates"): INT8_DOTS for the four rows from r against each of
// pairs pairs of panels from panel, with their corr from corr, row t's
// cells against pair q to out[t*ldo+32q:][:32]. Needs AVX-512F and
// AVX-512 VNNI, and at least one pair.
TEXT ·int8Strip(SB), NOSPLIT, $0-64
	MOVQ r+0(FP), SI
	MOVQ ldr+8(FP), R9
	MOVQ panel+16(FP), R13
	MOVQ groups+24(FP), CX
	MOVQ corr+32(FP), R15
	MOVQ pairs+40(FP), R8
	MOVQ out+48(FP), DI

stripPair:
	MOVQ      R13, DX
	MOVQ      R15, AX
	INT8_DOTS
	MOVQ      ldo+56(FP), AX
	SHLQ      $2, AX
	LEAQ      (DI)(AX*2), BX
	VMOVDQU32 Z0, (DI)
	VMOVDQU32 Z4, 64(DI)
	VMOVDQU32 Z1, (DI)(AX*1)
	VMOVDQU32 Z5, 64(DI)(AX*1)
	VMOVDQU32 Z2, (BX)
	VMOVDQU32 Z6, 64(BX)
	VMOVDQU32 Z3, (BX)(AX*1)
	VMOVDQU32 Z7, 64(BX)(AX*1)
	LEAQ      (R13)(R14*2), R13
	ADDQ      $128, R15
	ADDQ      $128, DI
	DECQ      R8
	JNZ       stripPair
	VZEROUPPER
	RET

// func topKLanes(cells *int32, ldc, pairs int, col, row *float32, admit *uint32, live, groups int, lanes *float32, k int, kth *float32)
//
// The top-k's first pass over a 16-row group's cells (package doc,
// "Top-k by candidates"): for each row t whose bit is set in live, its
// cells at cells[t*ldc:], pairs pairs of 32 columns, each cell D +
// q_i.q_j, get the lower estimate
//
//	lo = s_i*(s_j*(cell - 2D) - b_j) - (c_i*s_j + 2^-100)
//
// in three fused steps, with D = groups+1, the columns' s_j and b_j from
// col (per panel 16 scales, then 16 b) and the row's s_i and c_i at
// row[t] and row[16+t]. Lane l of the row (column l of every 32) keeps
// at lanes[t*32+l] the largest lo over the columns admit admits (bit l of
// admit[q] for pair q); a NaN lo never raises it. Unless k is 0, kth[t]
// is then raised to the k-th largest of the row's 32 lanes. Needs
// AVX-512F.
TEXT ·topKLanes(SB), NOSPLIT, $0-88
	MOVQ         cells+0(FP), SI
	MOVQ         ldc+8(FP), R9
	SHLQ         $2, R9 // a row's bytes
	MOVQ         row+32(FP), R8
	MOVQ         live+48(FP), R10
	MOVQ         lanes+64(FP), DI
	MOVQ         groups+56(FP), AX
	LEAQ         2(AX)(AX*1), AX // 2D
	VPBROADCASTD AX, Z24
	VCVTDQ2PS    Z24, Z24
	MOVL         $0x0d800000, AX
	VPBROADCASTD AX, Z15 // 2^-100
	MOVL         $0xff800000, AX
	VPBROADCASTD AX, Z10 // -Inf
	MOVQ         k+72(FP), R12
	MOVQ         kth+80(FP), R11
	TESTQ        R10, R10
	JZ           lanesDone

lanesRow:
	TESTQ        $1, R10
	JZ           lanesNext
	VBROADCASTSS (R8), Z16
	VBROADCASTSS 64(R8), Z17
	VMOVUPS      (DI), Z25
	VMOVUPS      64(DI), Z26
	MOVQ         SI, AX
	MOVQ         col+24(FP), BX
	MOVQ         admit+40(FP), DX
	MOVQ         pairs+16(FP), CX

lanesPair:
	KMOVW       (DX), K4
	KMOVW       2(DX), K5
	VCVTDQ2PS   (AX), Z0
	VCVTDQ2PS   64(AX), Z1
	VSUBPS      Z24, Z0, Z0
	VSUBPS      Z24, Z1, Z1
	VMOVUPS     64(BX), Z2
	VMOVUPS     192(BX), Z3
	VFMSUB231PS (BX), Z0, Z2
	VFMSUB231PS 128(BX), Z1, Z3
	VMOVAPS     Z15, Z4
	VMOVAPS     Z15, Z5
	VFMADD231PS (BX), Z17, Z4
	VFMADD231PS 128(BX), Z17, Z5
	VFMSUB231PS Z2, Z16, Z4
	VFMSUB231PS Z3, Z16, Z5
	VMAXPS      Z25, Z4, K4, Z25
	VMAXPS      Z26, Z5, K5, Z26
	ADDQ        $128, AX
	ADDQ        $256, BX
	ADDQ        $4, DX
	DECQ        CX
	JNZ         lanesPair
	VMOVUPS     Z25, (DI)
	VMOVUPS     Z26, 64(DI)
	TESTQ       R12, R12
	JZ          lanesNext

	// The k-th largest lane m: take the largest lane left, m, and count
	// the lanes equal to it; unless they make up the k, clear them to
	// -Inf and go on.
	MOVQ    R12, R13
	VMOVAPS Z25, Z6
	VMOVAPS Z26, Z7

lanesKth:
	VMAXPS     Z7, Z6, Z8
	VSHUFF32X4 $0x4e, Z8, Z8, Z9
	VMAXPS     Z9, Z8, Z8
	VSHUFF32X4 $0xb1, Z8, Z8, Z9
	VMAXPS     Z9, Z8, Z8
	VPERMILPS  $0x4e, Z8, Z9
	VMAXPS     Z9, Z8, Z8
	VPERMILPS  $0xb1, Z8, Z9
	VMAXPS     Z9, Z8, Z8
	VCMPPS     $0, Z8, Z6, K1
	VCMPPS     $0, Z8, Z7, K2
	KMOVW      K1, AX
	POPCNTL    AX, AX
	KMOVW      K2, R14
	POPCNTL    R14, R14
	ADDQ       R14, AX
	CMPQ       AX, R13
	JGE        lanesRaise
	SUBQ       AX, R13
	VMOVAPS    Z10, K1, Z6
	VMOVAPS    Z10, K2, Z7
	JMP        lanesKth

lanesRaise:
	VMOVSS (R11), X9
	VMAXSS X9, X8, X9
	VMOVSS X9, (R11)

lanesNext:
	ADDQ R9, SI
	ADDQ $4, R8
	ADDQ $128, DI
	ADDQ $4, R11
	SHRQ $1, R10
	JNZ  lanesRow

lanesDone:
	VZEROUPPER
	RET

// One panel of a row's listing: the upper estimates in est of the lanes
// in k, packed to the front (VCOMPRESSPS), to (AX)(CX*4), their columns
// (jreg) likewise to (DX)(CX*4), and the row, Z26, to (R14)(CX*4); each
// store writes all 16 lanes, and CX moves on by the lanes in k.
#define LIST_PANEL(est, k, jreg) \
	VCOMPRESSPS.Z est, k, Z29;      \
	VMOVUPS       Z29, (AX)(CX*4);  \
	VPCOMPRESSD.Z jreg, k, Z29;     \
	VMOVDQU32     Z29, (DX)(CX*4);  \
	VMOVDQU32     Z26, (R14)(CX*4); \
	KMOVW         k, R12;           \
	POPCNTL       R12, R12;         \
	ADDQ          R12, CX

// The upper estimates of a pair of panels' cells, CELL_KEEP's three fused
// steps: the cells at (DI), the panels' scales and b at (BX), the row's
// s_i and c_i in Z16 and Z17 and the floor in Z15, into Z4 and Z5.
#define PAIR_UPPER \
	VCVTDQ2PS   (DI), Z0;       \
	VCVTDQ2PS   64(DI), Z1;     \
	VMOVUPS     64(BX), Z2;     \
	VMOVUPS     192(BX), Z3;    \
	VFMADD231PS (BX), Z0, Z2;   \
	VFMADD231PS 128(BX), Z1, Z3; \
	VMOVAPS     Z15, Z4;        \
	VMOVAPS     Z15, Z5;        \
	VFMADD231PS (BX), Z17, Z4;  \
	VFMADD231PS 128(BX), Z17, Z5; \
	VFMADD231PS Z2, Z16, Z4;    \
	VFMADD231PS Z3, Z16, Z5

// func topKList(cells *int32, ldc, pairs int, col, row *float32, admit *uint32, live int, kth *float32, ups *float32, cols, rows *int32, j0, n0, room int) (listed, rest int)
//
// The top-k's second pass over a 16-row group's cells, laid out as
// topKLanes reads them: for each row t whose bit is set in live, row by
// row and in ascending column, every admitted cell whose upper estimate
//
//	up = s_i*(s_j*cell + b_j) + (c_i*s_j + 2^-100)
//
// (three fused steps, CELL_KEEP's) is not below kth[t] (NLT_UQ: a NaN
// estimate is listed; a NaN kth is made +Inf) is listed: up, column
// j0+c and row n0+t to ups[m], cols[m] and rows[m] for m < listed, each
// array written up to 16 entries past listed but never at or past room:
// a row is listed only while room holds its every cell and 16 more, and
// rest is the bits of live from the first row not listed on (0 if every
// row was). pairs is at most 64. A
// row's pairs are first compared without a branch, each pair's 32-bit
// mask to the stack and a bit for each pair with a cell listed to R14;
// then the pairs of those bits, in ascending order, are estimated again
// and listed, so a row takes one unpredictable branch per listing pair,
// not one per pair. Needs AVX-512F.
TEXT ·topKList(SB), NOSPLIT, $256-128
	MOVQ         cells+0(FP), SI
	MOVQ         ldc+8(FP), R9
	SHLQ         $2, R9 // a row's bytes
	MOVQ         row+32(FP), R8
	MOVQ         live+48(FP), R10
	MOVQ         kth+56(FP), R11
	XORQ         CX, CX
	MOVQ         n0+96(FP), R12
	VPBROADCASTD R12, Z26 // the row's number
	MOVL         $1, R12
	VPBROADCASTD R12, Z23
	MOVL         $16, R12
	VPBROADCASTD R12, Z22
	MOVL         $0x0d800000, R12
	VPBROADCASTD R12, Z15 // 2^-100
	MOVL         $0x7f800000, R12
	VPBROADCASTD R12, Z21 // +Inf
	TESTQ        R10, R10
	JZ           listDone

listRow:
	TESTQ        $1, R10
	JZ           listNext
	MOVQ         pairs+16(FP), R12
	SHLQ         $5, R12
	LEAQ         16(R12)(CX*1), R12 // the row's worst case
	CMPQ         R12, room+104(FP)
	JGT          listStop
	VBROADCASTSS (R8), Z16
	VBROADCASTSS 64(R8), Z17
	VBROADCASTSS (R11), Z18
	VMINPS       Z21, Z18, Z18
	MOVQ         SI, DI
	MOVQ         col+24(FP), BX
	MOVQ         admit+40(FP), R13
	XORQ         R15, R15 // the pair
	MOVL         $1, DX   // its bit
	XORQ         R14, R14 // the pairs with a cell listed

listPair:
	KMOVW    (R13), K4
	KMOVW    2(R13), K5
	PAIR_UPPER
	VCMPPS   $0x15, Z18, Z4, K4, K1
	VCMPPS   $0x15, Z18, Z5, K5, K2
	KMOVW    K1, AX
	KMOVW    K2, R12
	SHLL     $16, R12
	ORL      R12, AX
	MOVL     AX, (SP)(R15*4)
	XORQ     R12, R12
	TESTL    AX, AX
	CMOVQNE  DX, R12
	ORQ      R12, R14
	SHLQ     $1, DX
	ADDQ     $128, DI
	ADDQ     $256, BX
	ADDQ     $4, R13
	INCQ     R15
	CMPQ     R15, pairs+16(FP)
	JLT      listPair

	MOVQ  R14, R15
	TESTQ R15, R15
	JZ    listNext
	MOVQ  ups+64(FP), AX
	MOVQ  cols+72(FP), DX
	MOVQ  rows+80(FP), R14

listHit:
	BSFQ         R15, R13 // the lowest pair left
	LEAQ         -1(R15), R12
	ANDQ         R12, R15
	MOVL         (SP)(R13*4), R12
	KMOVW        R12, K1
	SHRL         $16, R12
	KMOVW        R12, K2
	MOVQ         R13, DI
	SHLQ         $7, DI
	ADDQ         SI, DI
	MOVQ         R13, BX
	SHLQ         $8, BX
	ADDQ         col+24(FP), BX
	PAIR_UPPER
	SHLQ         $5, R13
	ADDQ         j0+88(FP), R13
	VPBROADCASTD R13, Z27
	VPADDD       lanes<>(SB), Z27, Z27 // the first panel's columns
	VPADDD       Z22, Z27, Z28         // the second's
	LIST_PANEL(Z4, K1, Z27)
	LIST_PANEL(Z5, K2, Z28)
	TESTQ        R15, R15
	JNZ          listHit

listNext:
	ADDQ   R9, SI
	ADDQ   $4, R8
	ADDQ   $4, R11
	VPADDD Z23, Z26, Z26
	SHRQ   $1, R10
	JNZ    listRow

listDone:
	MOVQ CX, listed+112(FP)
	MOVQ $0, rest+120(FP)
	VZEROUPPER
	RET

listStop:
	MOVQ CX, listed+112(FP)
	MOVQ R8, CX
	SUBQ row+32(FP), CX
	SHRQ $2, CX // the row
	SHLQ CX, R10
	MOVQ R10, rest+120(FP)
	VZEROUPPER
	RET

// The 16 rows' 16 elements from k, one row a register Z0..Z15: row l's
// offset (in elements) is the dword at 4l(ix), and its elements start at
// base plus four bytes an element.
#define LOAD16(base, ix) \
	MOVLQSX 0(ix), R8;\
	VMOVUPS (base)(R8*4), Z0;\
	MOVLQSX 4(ix), R8;\
	VMOVUPS (base)(R8*4), Z1;\
	MOVLQSX 8(ix), R8;\
	VMOVUPS (base)(R8*4), Z2;\
	MOVLQSX 12(ix), R8;\
	VMOVUPS (base)(R8*4), Z3;\
	MOVLQSX 16(ix), R8;\
	VMOVUPS (base)(R8*4), Z4;\
	MOVLQSX 20(ix), R8;\
	VMOVUPS (base)(R8*4), Z5;\
	MOVLQSX 24(ix), R8;\
	VMOVUPS (base)(R8*4), Z6;\
	MOVLQSX 28(ix), R8;\
	VMOVUPS (base)(R8*4), Z7;\
	MOVLQSX 32(ix), R8;\
	VMOVUPS (base)(R8*4), Z8;\
	MOVLQSX 36(ix), R8;\
	VMOVUPS (base)(R8*4), Z9;\
	MOVLQSX 40(ix), R8;\
	VMOVUPS (base)(R8*4), Z10;\
	MOVLQSX 44(ix), R8;\
	VMOVUPS (base)(R8*4), Z11;\
	MOVLQSX 48(ix), R8;\
	VMOVUPS (base)(R8*4), Z12;\
	MOVLQSX 52(ix), R8;\
	VMOVUPS (base)(R8*4), Z13;\
	MOVLQSX 56(ix), R8;\
	VMOVUPS (base)(R8*4), Z14;\
	MOVLQSX 60(ix), R8;\
	VMOVUPS (base)(R8*4), Z15

// The 16x16 transpose of Z0..Z15 (row l in Zl, element k in lane k): 64
// shuffles, dwords and qwords unpacked within 128-bit lanes, then two
// rounds of VSHUFF32X4 over the lanes, leaving element k of every row, row
// l in lane l, for k = 0..15 in Z21, Z29, Z18, Z26, Z22, Z30, Z19, Z27,
// Z23, Z0, Z20, Z28, Z24, Z1, Z2, Z3; it writes Z0..Z30, Z31 it keeps.
#define TRANSPOSE16 \
	VUNPCKLPS Z1, Z0, Z16;\
	VUNPCKHPS Z1, Z0, Z17;\
	VUNPCKLPS Z3, Z2, Z18;\
	VUNPCKHPS Z3, Z2, Z19;\
	VUNPCKLPS Z5, Z4, Z20;\
	VUNPCKHPS Z5, Z4, Z21;\
	VUNPCKLPS Z7, Z6, Z22;\
	VUNPCKHPS Z7, Z6, Z23;\
	VUNPCKLPS Z9, Z8, Z24;\
	VUNPCKHPS Z9, Z8, Z25;\
	VUNPCKLPS Z11, Z10, Z26;\
	VUNPCKHPS Z11, Z10, Z27;\
	VUNPCKLPS Z13, Z12, Z28;\
	VUNPCKHPS Z13, Z12, Z29;\
	VUNPCKLPS Z15, Z14, Z30;\
	VUNPCKHPS Z15, Z14, Z0;\
	VUNPCKLPD Z18, Z16, Z1;\
	VUNPCKHPD Z18, Z16, Z2;\
	VUNPCKLPD Z19, Z17, Z3;\
	VUNPCKHPD Z19, Z17, Z4;\
	VUNPCKLPD Z22, Z20, Z5;\
	VUNPCKHPD Z22, Z20, Z6;\
	VUNPCKLPD Z23, Z21, Z7;\
	VUNPCKHPD Z23, Z21, Z8;\
	VUNPCKLPD Z26, Z24, Z9;\
	VUNPCKHPD Z26, Z24, Z10;\
	VUNPCKLPD Z27, Z25, Z11;\
	VUNPCKHPD Z27, Z25, Z12;\
	VUNPCKLPD Z30, Z28, Z13;\
	VUNPCKHPD Z30, Z28, Z14;\
	VUNPCKLPD Z0, Z29, Z15;\
	VUNPCKHPD Z0, Z29, Z16;\
	VSHUFF32X4 $0x44, Z5, Z1, Z17;\
	VSHUFF32X4 $0xee, Z5, Z1, Z18;\
	VSHUFF32X4 $0x44, Z13, Z9, Z19;\
	VSHUFF32X4 $0xee, Z13, Z9, Z20;\
	VSHUFF32X4 $0x88, Z19, Z17, Z21;\
	VSHUFF32X4 $0xdd, Z19, Z17, Z22;\
	VSHUFF32X4 $0x88, Z20, Z18, Z23;\
	VSHUFF32X4 $0xdd, Z20, Z18, Z24;\
	VSHUFF32X4 $0x44, Z6, Z2, Z25;\
	VSHUFF32X4 $0xee, Z6, Z2, Z26;\
	VSHUFF32X4 $0x44, Z14, Z10, Z27;\
	VSHUFF32X4 $0xee, Z14, Z10, Z28;\
	VSHUFF32X4 $0x88, Z27, Z25, Z29;\
	VSHUFF32X4 $0xdd, Z27, Z25, Z30;\
	VSHUFF32X4 $0x88, Z28, Z26, Z0;\
	VSHUFF32X4 $0xdd, Z28, Z26, Z1;\
	VSHUFF32X4 $0x44, Z7, Z3, Z5;\
	VSHUFF32X4 $0xee, Z7, Z3, Z9;\
	VSHUFF32X4 $0x44, Z15, Z11, Z13;\
	VSHUFF32X4 $0xee, Z15, Z11, Z17;\
	VSHUFF32X4 $0x88, Z13, Z5, Z18;\
	VSHUFF32X4 $0xdd, Z13, Z5, Z19;\
	VSHUFF32X4 $0x88, Z17, Z9, Z20;\
	VSHUFF32X4 $0xdd, Z17, Z9, Z2;\
	VSHUFF32X4 $0x44, Z8, Z4, Z6;\
	VSHUFF32X4 $0xee, Z8, Z4, Z10;\
	VSHUFF32X4 $0x44, Z16, Z12, Z14;\
	VSHUFF32X4 $0xee, Z16, Z12, Z25;\
	VSHUFF32X4 $0x88, Z14, Z6, Z26;\
	VSHUFF32X4 $0xdd, Z14, Z6, Z27;\
	VSHUFF32X4 $0x88, Z25, Z10, Z28;\
	VSHUFF32X4 $0xdd, Z25, Z10, Z3

// func dotPairs(dst, r, s *float32, ri, sj *int32, d, n int)
//
// n <= 16 cells, one a lane: dst[l] = fmaSeq over ascending k of
// r[ri[l]+k] and s[sj[l]+k], for l < n and d >= 1; ri and sj are read
// for l < n only. Each 16 k-steps load the 16 rows' 16 elements of each
// side (LOAD16), transpose them (TRANSPOSE16), park R's on the stack and
// run one VFMADD231PS a step, so every lane performs dotSeq's operation
// sequence, as the tiles' lanes do; the last d%16 steps gather each
// side's element, one VGATHERDPS a side a step. Lanes from n on compute
// row 0's cells and are not stored. Needs AVX-512F.
TEXT ·dotPairs(SB), $1152-56
	MOVQ        dst+0(FP), DI
	MOVQ        r+8(FP), SI
	MOVQ        s+16(FP), DX
	MOVQ        ri+24(FP), AX
	MOVQ        sj+32(FP), BX
	MOVQ        n+48(FP), CX
	MOVL        $1, R8
	SHLL        CX, R8
	DECL        R8
	KMOVW       R8, K2
	MOVQ        d+40(FP), CX
	VMOVDQU32.Z (AX), K2, Z1
	VMOVDQU32.Z (BX), K2, Z2
	VMOVDQU32   Z1, (SP)   // the lanes' R offsets
	VMOVDQU32   Z2, 64(SP) // and S offsets; R's transposed elements from 128(SP)
	VPXORD      Z31, Z31, Z31
	MOVQ        CX, R9
	SHRQ        $4, R9
	JZ          pairTail

pairBlock:
	LEAQ (SP), R10
	LOAD16(SI, R10)
	TRANSPOSE16
	VMOVUPS Z21, 128(SP)
	VMOVUPS Z29, 192(SP)
	VMOVUPS Z18, 256(SP)
	VMOVUPS Z26, 320(SP)
	VMOVUPS Z22, 384(SP)
	VMOVUPS Z30, 448(SP)
	VMOVUPS Z19, 512(SP)
	VMOVUPS Z27, 576(SP)
	VMOVUPS Z23, 640(SP)
	VMOVUPS Z0, 704(SP)
	VMOVUPS Z20, 768(SP)
	VMOVUPS Z28, 832(SP)
	VMOVUPS Z24, 896(SP)
	VMOVUPS Z1, 960(SP)
	VMOVUPS Z2, 1024(SP)
	VMOVUPS Z3, 1088(SP)
	LEAQ 64(SP), R10
	LOAD16(DX, R10)
	TRANSPOSE16
	VFMADD231PS 128(SP), Z21, Z31
	VFMADD231PS 192(SP), Z29, Z31
	VFMADD231PS 256(SP), Z18, Z31
	VFMADD231PS 320(SP), Z26, Z31
	VFMADD231PS 384(SP), Z22, Z31
	VFMADD231PS 448(SP), Z30, Z31
	VFMADD231PS 512(SP), Z19, Z31
	VFMADD231PS 576(SP), Z27, Z31
	VFMADD231PS 640(SP), Z23, Z31
	VFMADD231PS 704(SP), Z0, Z31
	VFMADD231PS 768(SP), Z20, Z31
	VFMADD231PS 832(SP), Z28, Z31
	VFMADD231PS 896(SP), Z24, Z31
	VFMADD231PS 960(SP), Z1, Z31
	VFMADD231PS 1024(SP), Z2, Z31
	VFMADD231PS 1088(SP), Z3, Z31
	ADDQ $64, SI
	ADDQ $64, DX
	DECQ R9
	JNZ  pairBlock

pairTail:
	ANDQ      $15, CX
	JZ        pairDone
	VMOVDQU32 (SP), Z1
	VMOVDQU32 64(SP), Z2
	VPXORD    Z3, Z3, Z3
	VPXORD    Z4, Z4, Z4

pairLoop:
	KMOVW       K2, K1
	VGATHERDPS  (SI)(Z1*4), K1, Z3
	KMOVW       K2, K3
	VGATHERDPS  (DX)(Z2*4), K3, Z4
	VFMADD231PS Z4, Z3, Z31
	ADDQ        $4, SI
	ADDQ        $4, DX
	DECQ        CX
	JNZ         pairLoop

pairDone:
	VMOVUPS Z31, K2, (DI)
	VZEROUPPER
	RET

// The lane numbers 0..15, as dwords.
DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
DATA lanes<>+32(SB)/4, $8
DATA lanes<>+36(SB)/4, $9
DATA lanes<>+40(SB)/4, $10
DATA lanes<>+44(SB)/4, $11
DATA lanes<>+48(SB)/4, $12
DATA lanes<>+52(SB)/4, $13
DATA lanes<>+56(SB)/4, $14
DATA lanes<>+60(SB)/4, $15
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// func packPanelZMM(panel, s *float32, d, cols int)
//
// packPanels for one panel on AVX-512F: panel[k*16+jj] = s[jj*d+k] for
// jj < cols and 0 for the lanes past them, k in [0,d), one VGATHERDPS of
// the 16 rows' k-th elements a step.
TEXT ·packPanelZMM(SB), NOSPLIT, $0-32
	MOVQ         panel+0(FP), DI
	MOVQ         s+8(FP), SI
	MOVQ         d+16(FP), BX
	MOVQ         cols+24(FP), CX
	VPBROADCASTD BX, Z1
	VPMULLD      lanes<>(SB), Z1, Z1 // jj*d
	MOVL         $1, AX
	SHLL         CX, AX
	DECL         AX
	KMOVW        AX, K2

gatherLoop:
	KMOVW      K2, K1
	VPXORD     Z0, Z0, Z0
	VGATHERDPS (SI)(Z1*4), K1, Z0
	VMOVUPS    Z0, (DI)
	ADDQ       $4, SI
	ADDQ       $64, DI
	DECQ       BX
	JNZ        gatherLoop
	VZEROUPPER
	RET

// One row's 16 squares from k = AX on, summed pairwise into 8 lanes.
#define ROW_SQUARES(rbase, dst, tmp) \
	VMOVUPS (rbase)(AX*4), dst;   \
	VMOVUPS 32(rbase)(AX*4), tmp; \
	VMULPS  dst, dst, dst;        \
	VMULPS  tmp, tmp, tmp;        \
	VADDPS  tmp, dst, dst

// func suffixFactors4(r0, r1, r2, r3 *float32, d int, out *float32, stride int, alpha, beta float32)
//
// The suffix factors of four d-long rows, d >= 32: for every checkpoint
// c = 1..d/16-1 the four floats at out[(c-1)*stride] become
//
//	alpha*|row[16c:]| + beta*|row| + 2^-60
//
// for r0..r3. X0 holds the four rows' sums of squares from k = AX to the
// end, walking k down from d: singly to the last multiple of 16, then a
// 16-segment at a time; it is stored raw at every checkpoint on the way,
// and a second pass turns the sums into factors once |row| is known.
TEXT ·suffixFactors4(SB), NOSPLIT, $0-64
	MOVQ r0+0(FP), SI
	MOVQ r1+8(FP), R10
	MOVQ r2+16(FP), R11
	MOVQ r3+24(FP), R12
	MOVQ d+32(FP), CX
	MOVQ out+40(FP), DI
	MOVQ stride+48(FP), R8
	SHLQ $2, R8
	MOVQ CX, BX
	SHRQ $4, BX
	DECQ BX // checkpoints
	MOVQ BX, R9
	IMULQ R8, R9
	ADDQ R9, DI // one past the last checkpoint's slot

	VXORPS X0, X0, X0
	MOVQ   CX, AX
	JMP    tailcheck

tail:
	DECQ      AX
	VMOVSS    (SI)(AX*4), X1
	VINSERTPS $0x10, (R10)(AX*4), X1, X1
	VINSERTPS $0x20, (R11)(AX*4), X1, X1
	VINSERTPS $0x30, (R12)(AX*4), X1, X1
	VMULPS    X1, X1, X1
	VADDPS    X1, X0, X0

tailcheck:
	TESTQ $15, AX
	JNZ   tail

segment:
	LEAQ 16(AX), R9
	CMPQ R9, CX
	JGT  squares
	SUBQ R8, DI
	VMOVUPS X0, (DI)

squares:
	SUBQ $16, AX
	ROW_SQUARES(SI, Y1, Y5)
	ROW_SQUARES(R10, Y2, Y5)
	ROW_SQUARES(R11, Y3, Y5)
	ROW_SQUARES(R12, Y4, Y5)
	VHADDPS Y2, Y1, Y1
	VHADDPS Y4, Y3, Y3
	VHADDPS Y3, Y1, Y1
	VEXTRACTF128 $1, Y1, X2
	VADDPS  X2, X1, X1
	VADDPS  X1, X0, X0
	TESTQ   AX, AX
	JNZ     segment

	VBROADCASTSS alpha+56(FP), X3
	VBROADCASTSS beta+60(FP), X4
	MOVL         $0x21800000, AX // 2^-60
	VMOVD        AX, X5
	VBROADCASTSS X5, X5
	VSQRTPS X0, X0
	VMULPS  X4, X0, X0
	VADDPS  X5, X0, X0 // beta*|row| + 2^-60

factors:
	VSQRTPS (DI), X1
	VMULPS  X3, X1, X1
	VADDPS  X0, X1, X1
	VMOVUPS X1, (DI)
	ADDQ    R8, DI
	DECQ    BX
	JNZ     factors
	VZEROUPPER
	RET

// The measured ceiling for the tiles above: the k loop's arithmetic, a
// VFMADD231PS into each of eight independent accumulators, on registers
// only, so nothing but the fused multiply-add ports limits it.
#define PEAK_LOOP(a0, a1, a2, a3, a4, a5, a6, a7, x, y) \
peak: \
	VFMADD231PS x, y, a0; \
	VFMADD231PS x, y, a1; \
	VFMADD231PS x, y, a2; \
	VFMADD231PS x, y, a3; \
	VFMADD231PS x, y, a4; \
	VFMADD231PS x, y, a5; \
	VFMADD231PS x, y, a6; \
	VFMADD231PS x, y, a7; \
	DECQ CX; \
	JNZ  peak; \
	VZEROALL; \
	RET

// func peakFMAYMM(iters int)
//
// iters > 0 rounds of 8 VFMADD231PS on 8 lanes: 128 flops each.
TEXT ·peakFMAYMM(SB), NOSPLIT, $0-8
	VZEROALL
	MOVQ iters+0(FP), CX
	PEAK_LOOP(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9)

// func peakFMAZMM(iters int)
//
// The same on 16 lanes, 256 flops a round; needs AVX-512F.
TEXT ·peakFMAZMM(SB), NOSPLIT, $0-8
	VZEROALL
	MOVQ iters+0(FP), CX
	PEAK_LOOP(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9)

// func peakDotInt8(iters int)
//
// The int8 tile's ceiling: iters > 0 rounds of a VPDPBUSD into each of
// sixteen ZMM accumulators, as the tile keeps, on registers only, 1024
// multiply-adds a round. (Eight would measure its latency, not its
// ports.) Needs AVX-512 VNNI.
TEXT ·peakDotInt8(SB), NOSPLIT, $0-8
	VZEROALL
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	MOVQ   iters+0(FP), CX

peakI8:
	VPDPBUSD Z8, Z9, Z0
	VPDPBUSD Z8, Z9, Z1
	VPDPBUSD Z8, Z9, Z2
	VPDPBUSD Z8, Z9, Z3
	VPDPBUSD Z8, Z9, Z4
	VPDPBUSD Z8, Z9, Z5
	VPDPBUSD Z8, Z9, Z6
	VPDPBUSD Z8, Z9, Z7
	VPDPBUSD Z8, Z9, Z16
	VPDPBUSD Z8, Z9, Z17
	VPDPBUSD Z8, Z9, Z18
	VPDPBUSD Z8, Z9, Z19
	VPDPBUSD Z8, Z9, Z20
	VPDPBUSD Z8, Z9, Z21
	VPDPBUSD Z8, Z9, Z22
	VPDPBUSD Z8, Z9, Z23
	DECQ     CX
	JNZ      peakI8
	VZEROALL
	RET

// func fmaSS(a, b, c float32) float32
//
// The host's a*b+c rounded once, VFMADD231SS: what FuzzFMA32 holds fma32
// to.
TEXT ·fmaSS(SB), NOSPLIT, $0-20
	VMOVSS      a+0(FP), X0
	VMOVSS      b+4(FP), X1
	VMOVSS      c+8(FP), X2
	VFMADD231SS X1, X0, X2
	VMOVSS      X2, ret+16(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
