//go:build amd64 && !purego

#include "textflag.h"

// One k step of one R row against a 16-column panel held in Y8:Y9.
// The element is broadcast to all lanes, multiplied, then added: two
// roundings per lane, exactly Go's acc += r[k]*s[k]. Never VFMADD.
#define ROW_STEP(rbase, lo, hi) \
	VBROADCASTSS (rbase)(AX*4), Y10; \
	VMULPS       Y8, Y10, Y11;       \
	VMULPS       Y9, Y10, Y12;       \
	VADDPS       Y11, lo, lo;        \
	VADDPS       Y12, hi, hi

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
// row's bound at off(BX), every lane must satisfy acc + a_i*b < bound
// (ordered: a NaN or infinite estimate keeps the tile) or the bound be
// NaN, which nothing reaches; otherwise the tile goes on.
#define ROW_PRUNABLE(off, lo, hi) \
	VBROADCASTSS off(R9), Y10;        \
	VMULPS       Y13, Y10, Y11;       \
	VMULPS       Y14, Y10, Y12;       \
	VADDPS       lo, Y11, Y11;        \
	VADDPS       hi, Y12, Y12;        \
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
// dst[i*ldd+jj] = sum over ascending k of r[i*ldr+k]*panel[k*16+jj],
// for i in [0,4), jj in [0,16). Strides are in elements.
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
// The remainder-row variant: dst[jj] = sum over ascending k of
// r[k]*panel[k*16+jj], jj in [0,16).
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
// can add. Otherwise, and always when first > d-16, k is d.
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

// The measured ceiling for the tiles above: the k loop's arithmetic, one
// VMULPS and one dependent VADDPS into each of eight accumulators, on
// registers only, so nothing but the two vector ports limits it.
#define PEAK_STEP(acc, tmp, x, y) \
	VMULPS x, y, tmp; \
	VADDPS tmp, acc, acc

#define PEAK_LOOP(a0, a1, a2, a3, a4, a5, a6, a7, t0, t1, x, y) \
peak: \
	PEAK_STEP(a0, t0, x, y); \
	PEAK_STEP(a1, t1, x, y); \
	PEAK_STEP(a2, t0, x, y); \
	PEAK_STEP(a3, t1, x, y); \
	PEAK_STEP(a4, t0, x, y); \
	PEAK_STEP(a5, t1, x, y); \
	PEAK_STEP(a6, t0, x, y); \
	PEAK_STEP(a7, t1, x, y); \
	DECQ CX; \
	JNZ  peak; \
	VZEROALL; \
	RET

// func peakMulAddYMM(iters int)
//
// iters > 0 rounds of 8 VMULPS + 8 VADDPS on 8 lanes: 128 flops each.
TEXT ·peakMulAddYMM(SB), NOSPLIT, $0-8
	VZEROALL
	MOVQ iters+0(FP), CX
	PEAK_LOOP(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

// func peakMulAddZMM(iters int)
//
// The same on 16 lanes, 256 flops a round; needs AVX-512F.
TEXT ·peakMulAddZMM(SB), NOSPLIT, $0-8
	VZEROALL
	MOVQ iters+0(FP), CX
	PEAK_LOOP(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11)

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
